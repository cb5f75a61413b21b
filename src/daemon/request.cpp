#include "daemon/request.hpp"

#include "common/json_min.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"

namespace feather {
namespace daemon {

namespace {

bool
fail(std::string *error, std::string why)
{
    *error = std::move(why);
    return false;
}

bool
stringField(const std::string &key, const JsonScalar &v, std::string *out,
            std::string *error)
{
    if (v.kind != JsonScalar::Kind::String) {
        return fail(error, strCat("\"", key, "\" must be a string"));
    }
    *out = v.text;
    return true;
}

bool
dimField(const std::string &key, const JsonScalar &v, int *out,
         std::string *error)
{
    uint64_t n = 0;
    if (!v.asUint(&n) || n == 0 || n > 4096) {
        return fail(error, strCat("\"", key, "\" must be a positive integer"
                                  " <= 4096, got ", v.text));
    }
    *out = int(n);
    return true;
}

} // namespace

bool
Request::parse(const std::string &line, Request *out, std::string *error)
{
    *out = Request();
    JsonObject obj;
    if (!JsonObject::parse(line, &obj, error)) return false;

    bool has_scenario = false;
    bool has_model = false;
    for (const auto &[key, value] : obj.entries()) {
        if (key == "id") {
            if (!stringField(key, value, &out->id, error)) return false;
        } else if (key == "client") {
            if (!stringField(key, value, &out->client, error)) return false;
            if (out->client.empty()) {
                return fail(error, "\"client\" must be non-empty");
            }
        } else if (key == "priority") {
            int64_t p = 0;
            if (!value.asInt(&p) || p < 0 || p > 2) {
                return fail(error, strCat("\"priority\" must be 0, 1 or 2, "
                                          "got ", value.text));
            }
            out->priority = int(p);
        } else if (key == "arrival_us") {
            int64_t t = 0;
            if (!value.asInt(&t) || t < 0) {
                return fail(error, strCat("\"arrival_us\" must be a "
                                          "non-negative integer, got ",
                                          value.text));
            }
            out->arrival_us = t;
        } else if (key == "scenario") {
            if (!stringField(key, value, &out->scenario, error)) return false;
            has_scenario = true;
        } else if (key == "model") {
            if (!stringField(key, value, &out->model, error)) return false;
            has_model = true;
        } else if (key == "schedule") {
            if (!stringField(key, value, &out->schedule, error)) return false;
        } else if (key == "aw") {
            if (!dimField(key, value, &out->aw, error)) return false;
        } else if (key == "ah") {
            if (!dimField(key, value, &out->ah, error)) return false;
        } else if (key == "dataflow") {
            if (!stringField(key, value, &out->dataflow, error)) return false;
        } else if (key == "layout") {
            if (!stringField(key, value, &out->layout, error)) return false;
        } else if (key == "out_layout") {
            if (!stringField(key, value, &out->out_layout, error)) {
                return false;
            }
        } else if (key == "seed") {
            uint64_t s = 0;
            if (!value.asUint(&s)) {
                return fail(error, strCat("\"seed\" must be a non-negative "
                                          "integer, got ", value.text));
            }
            out->seed = s;
        } else if (key == "engine") {
            std::string name;
            if (!stringField(key, value, &name, error)) return false;
            const std::optional<sim::EngineMode> mode =
                sim::parseEngineMode(name);
            if (!mode) {
                return fail(error, strCat("\"engine\" must be cycle or "
                                          "analytic, got \"", name, "\""));
            }
            out->engine = *mode;
        } else {
            return fail(error, strCat("unknown key \"", key, "\""));
        }
    }

    if (has_scenario == has_model) {
        return fail(error, has_scenario
                               ? "\"scenario\" and \"model\" are exclusive"
                               : "one of \"scenario\" or \"model\" is "
                                 "required");
    }
    if (has_scenario && out->scenario.empty()) {
        return fail(error, "\"scenario\" must be non-empty");
    }
    if (has_model && out->model.empty()) {
        return fail(error, "\"model\" must be non-empty");
    }
    if (has_model && !out->dataflow.empty()) {
        return fail(error, "\"dataflow\" applies to scenario requests only "
                           "(model requests pick per-layer dataflows)");
    }
    if (has_model && (out->layout != "concordant" ||
                      out->out_layout != "concordant")) {
        return fail(error, "\"layout\" and \"out_layout\" apply to scenario "
                           "requests only (model requests pick per-layer "
                           "layouts)");
    }
    if (has_scenario && out->schedule != "per-layer") {
        return fail(error, "\"schedule\" applies to model requests only "
                           "(scenario layers run at their pinned dataflows)");
    }
    return true;
}

std::string
Request::toJsonLine() const
{
    std::vector<FieldValue> line;
    const auto add = [&line](FieldValue f) { line.push_back(std::move(f)); };
    if (!id.empty()) add(textField("id", id));
    if (client != "anon") add(textField("client", client));
    if (priority != 1) add(numberField("priority", priority));
    if (arrival_us >= 0) add(numberField("arrival_us", arrival_us));
    if (!scenario.empty()) add(textField("scenario", scenario));
    if (!model.empty()) {
        add(textField("model", model));
        if (schedule != "per-layer") add(textField("schedule", schedule));
    }
    if (aw > 0) add(numberField("aw", aw));
    if (ah > 0) add(numberField("ah", ah));
    if (!dataflow.empty()) add(textField("dataflow", dataflow));
    if (layout != "concordant") add(textField("layout", layout));
    if (out_layout != "concordant") add(textField("out_layout", out_layout));
    if (seed) add(numberField("seed", *seed));
    if (engine) add(textField("engine", sim::toString(*engine)));
    return jsonObject(line);
}

} // namespace daemon
} // namespace feather
