#include "model/graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/log.hpp"
#include "common/parse.hpp"

namespace feather {
namespace model {

namespace {

std::vector<ModelGraph>
buildModels()
{
    std::vector<ModelGraph> all;

    ModelGraph resnet = *sim::findScenario("resnet_block");
    resnet.summary = "scaled ResNet bottleneck 1x1 -> 3x3 -> 1x1 (the "
                     "resnet_block scenario as a schedulable graph)";
    for (ModelLayer &ml : resnet.layers) ml.dataflow.reset();
    all.push_back(std::move(resnet));

    all.push_back(
        {"mobilenet_slice",
         "two MobileNet separable stages: expand -> depthwise -> project "
         "-> depthwise -> pointwise",
         {{sim::convLayer("expand_1x1", 16, 14, 32, 1, 1, 0)},
          {sim::depthwiseLayer("dw1_3x3", 32, 14, 3, 1, 1), 0.05f},
          {sim::convLayer("project_1x1", 32, 14, 16, 1, 1, 0)},
          {sim::depthwiseLayer("dw2_3x3", 16, 14, 3, 1, 1), 0.05f},
          {sim::convLayer("pw_1x1", 16, 14, 32, 1, 1, 0)}},
         8, 8});

    all.push_back(
        {"bert_mlp",
         "scaled BERT feed-forward pair: expand GEMM -> contract GEMM",
         {{sim::gemmLayer("fc_expand", 8, 32, 16), 0.03f},
          {sim::gemmLayer("fc_contract", 8, 16, 32), 0.03f}},
         4, 4});

    return all;
}

/** Key=value list parsed off one model-file layer line. */
struct KeyVals
{
    std::vector<std::pair<std::string, std::string>> pairs;

    const std::string *
    find(const std::string &key) const
    {
        for (const auto &kv : pairs) {
            if (kv.first == key) return &kv.second;
        }
        return nullptr;
    }
};

} // namespace

const std::vector<ModelGraph> &
builtinModels()
{
    static const std::vector<ModelGraph> all = buildModels();
    return all;
}

const ModelGraph *
findModel(const std::string &name)
{
    for (const ModelGraph &g : builtinModels()) {
        if (g.name == name) return &g;
    }
    return nullptr;
}

std::vector<std::string>
modelNames()
{
    std::vector<std::string> names;
    for (const ModelGraph &g : builtinModels()) names.push_back(g.name);
    return names;
}

std::optional<ModelGraph>
parseModelText(const std::string &text, const std::string &default_name,
               std::string *error)
{
    ModelGraph graph;
    graph.name = default_name;

    std::istringstream lines(text);
    std::string line;
    int line_no = 0;
    const auto fail = [&](const std::string &why) -> std::optional<ModelGraph> {
        if (error) *error = strCat("model file line ", line_no, ": ", why);
        return std::nullopt;
    };

    while (std::getline(lines, line)) {
        ++line_no;
        const size_t hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        std::istringstream tokens(line);
        std::string type;
        if (!(tokens >> type)) continue; // blank / comment-only line

        // Directives.
        if (type == "model" || type == "aw" || type == "ah") {
            std::string value;
            if (!(tokens >> value)) return fail(type + " needs a value");
            if (type == "model") {
                graph.name = value;
            } else {
                uint64_t n = 0;
                if (!parseUint(value, &n) || n < 1 || n > 65536) {
                    return fail(type +
                                " needs a positive integer <= 65536");
                }
                (type == "aw" ? graph.default_aw : graph.default_ah) =
                    int(n);
            }
            std::string extra;
            if (tokens >> extra) {
                return fail("unexpected token '" + extra + "' after " +
                            type);
            }
            continue;
        }

        if (type != "conv" && type != "depthwise" && type != "pointwise" &&
            type != "gemm") {
            return fail("unknown layer type '" + type +
                        "' (expected conv, depthwise, pointwise, gemm, or "
                        "a model/aw/ah directive)");
        }

        KeyVals kv;
        std::string token;
        while (tokens >> token) {
            const size_t eq = token.find('=');
            if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
                return fail("expected key=value, got '" + token + "'");
            }
            std::string key = token.substr(0, eq);
            // A conflicting duplicate is the same class of authoring
            // mistake as a typo'd key: reject it instead of silently
            // letting the first occurrence win.
            if (kv.find(key)) {
                return fail("duplicate key '" + key + "'");
            }
            kv.pairs.emplace_back(std::move(key), token.substr(eq + 1));
        }

        // Reject keys the layer type does not consume, so a typo (or a
        // conv key on a gemm line) errors out instead of silently
        // producing a different model than the author intended.
        static const std::vector<std::string> kShared = {"name", "qm"};
        static const std::vector<std::string> kConvKeys = {
            "c", "m", "h", "w", "hw", "r", "s", "rs", "stride", "pad"};
        static const std::vector<std::string> kDepthwiseKeys = {
            "c", "h", "w", "hw", "r", "s", "rs", "stride", "pad"};
        static const std::vector<std::string> kPointwiseKeys = {
            "c", "m", "h", "w", "hw", "stride", "pad"};
        static const std::vector<std::string> kGemmKeys = {"m", "n", "k"};
        const std::vector<std::string> &typed =
            type == "gemm"
                ? kGemmKeys
                : (type == "depthwise"
                       ? kDepthwiseKeys
                       : (type == "pointwise" ? kPointwiseKeys
                                              : kConvKeys));
        for (const auto &pair : kv.pairs) {
            const bool ok =
                std::find(kShared.begin(), kShared.end(), pair.first) !=
                    kShared.end() ||
                std::find(typed.begin(), typed.end(), pair.first) !=
                    typed.end();
            if (!ok) {
                return fail("unknown key '" + pair.first + "' for a " +
                            type + " layer");
            }
        }

        // Shared accessors over the key=value list.
        bool bad = false;
        std::string bad_why;
        const auto dim = [&](const std::string &key, int64_t fallback,
                             bool required) -> int64_t {
            const std::string *v = kv.find(key);
            if (!v) {
                // h/w and r/s fall back to the square hw/rs spellings.
                if (key == "h" || key == "w") v = kv.find("hw");
                if (key == "r" || key == "s") v = kv.find("rs");
            }
            if (!v) {
                if (required) {
                    bad = true;
                    bad_why = type + " needs " + key + "=";
                }
                return fallback;
            }
            uint64_t n = 0;
            // Every dimension key must be >= 1 (a zero stride or extent
            // would divide by zero / fail tensor CHECKs downstream); only
            // pad may legitimately be 0.
            if (!parseUint(*v, &n) || (n == 0 && key != "pad") ||
                n > 65536) {
                bad = true;
                bad_why = key == "pad"
                              ? "pad needs an integer in [0, 65536]"
                              : key + " needs a positive integer <= 65536";
                return fallback;
            }
            return int64_t(n);
        };

        ModelLayer ml;
        std::string name = type + std::to_string(graph.layers.size());
        if (const std::string *v = kv.find("name")) name = *v;
        if (const std::string *v = kv.find("qm")) {
            char *end = nullptr;
            const float q = std::strtof(v->c_str(), &end);
            // strtof reads "inf"/"nan" and overflows 1e39 to inf.
            if (end == v->c_str() || *end != '\0' || !std::isfinite(q) ||
                !(q > 0.0f)) {
                return fail("qm needs a finite positive number, got '" + *v +
                            "'");
            }
            ml.multiplier = q;
        }

        if (type == "gemm") {
            ml.spec = sim::gemmLayer(name, dim("m", 0, true),
                                     dim("n", 0, true), dim("k", 0, true));
        } else if (type == "depthwise") {
            const int64_t c = dim("c", 0, true);
            const int64_t h = dim("h", 0, true);
            const int64_t w = dim("w", h, false);
            const int64_t r = dim("r", 0, true);
            const int64_t s = dim("s", r, false);
            ml.spec = sim::depthwiseLayer(name, c, h, r,
                                          dim("stride", 1, false),
                                          dim("pad", 0, false));
            ml.spec.conv.w = w;
            ml.spec.conv.s = s;
        } else { // conv / pointwise
            const bool pointwise = type == "pointwise";
            const int64_t r = pointwise ? 1 : dim("r", 1, false);
            const int64_t s = pointwise ? 1 : dim("s", r, false);
            const int64_t h = dim("h", 0, true);
            ml.spec = sim::convLayer2d(name, dim("c", 0, true), h,
                                       dim("w", h, false),
                                       dim("m", 0, true), r, s,
                                       dim("stride", 1, false),
                                       dim("pad", 0, false));
        }
        if (bad) return fail(bad_why);

        graph.layers.push_back(std::move(ml));
    }

    const std::string why = graph.validate();
    if (!why.empty()) {
        if (error) *error = why;
        return std::nullopt;
    }
    return graph;
}

std::optional<ModelGraph>
loadModel(const std::string &name_or_path, std::string *error)
{
    if (const ModelGraph *g = findModel(name_or_path)) return *g;

    std::ifstream in(name_or_path, std::ios::binary);
    if (!in) {
        if (error) {
            std::string names;
            for (const std::string &n : modelNames()) names += " " + n;
            *error = "unknown model '" + name_or_path +
                     "' (not a built-in graph:" + names +
                     "; and not a readable model file)";
        }
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();

    // Default the graph name to the file's stem.
    std::string stem = name_or_path;
    const size_t slash = stem.find_last_of("/\\");
    if (slash != std::string::npos) stem.erase(0, slash + 1);
    const size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos && dot > 0) stem.erase(dot);

    return parseModelText(text.str(), stem, error);
}

} // namespace model
} // namespace feather
