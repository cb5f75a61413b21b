#include "inputs.hpp"

#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "common/log.hpp"
#include "common/rng.hpp"

using feather::Rng;
using feather::strCat;

namespace bench {

namespace {

/** Shapes (generated chains, sweep shape groups) and op orders are drawn
 *  under this fixed seed, not --seed: they set the simulated cycles, the
 *  host cost and the memory peak of a round, which must not change with
 *  the seed (see inputs.hpp). */
constexpr uint64_t kCatalogSeed = 0xFEA7'2024;
constexpr size_t kChains = 4;
/** Streams of kCatalogSeed: one per generated chain, then these two. */
constexpr uint64_t kSweepGroupStream = kChains;
constexpr uint64_t kOrderStream = kChains + 1;

/** The registered sim scenarios with their default array shapes, spelled
 *  out so the inputs do not change when the program's registry does. */
struct ScenarioShape
{
    const char *name;
    int aw;
    int ah;
};
constexpr ScenarioShape kScenarios[] = {
    {"quickstart_conv", 4, 4}, {"conv3x3", 8, 8},      {"conv1x1", 8, 8},
    {"conv_window", 8, 8},     {"depthwise", 4, 4},    {"gemm", 4, 4},
    {"gemm_skewed", 4, 4},     {"resnet_block", 8, 8}, {"mobilenet_bneck", 8, 8},
    {"dw_separable", 8, 8},    {"gemm_chain", 4, 4},   {"conv_stride2", 8, 8},
};

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i) {
        std::swap(v[i - 1], v[size_t(rng.below(i))]);
    }
}

template <typename T, size_t N>
T
pick(const T (&options)[N], Rng &rng)
{
    return options[rng.below(N)];
}

/** A 3-5 layer conv/depthwise/pointwise chain in the model text format. */
std::string
chainText(size_t index)
{
    Rng rng = Rng::forStream(kCatalogSeed, index);
    const int64_t layers = rng.range(3, 5);
    const int hw = pick({6, 8}, rng);
    int c = pick({8, 16}, rng);
    std::string text = strCat("model chain", index, "\naw 8\nah 8\n");
    int m = pick({8, 16}, rng);
    text += strCat("conv name=l0 c=", c, " hw=", hw, " m=", m,
                   " rs=3 pad=1 qm=0.03\n");
    c = m;
    for (int64_t l = 1; l < layers; ++l) {
        switch (rng.below(3)) {
        case 0:
            m = pick({8, 16}, rng);
            text += strCat("conv name=l", l, " c=", c, " hw=", hw, " m=", m,
                           " rs=3 pad=1 qm=0.03\n");
            c = m;
            break;
        case 1:
            text += strCat("depthwise name=l", l, " c=", c, " hw=", hw,
                           " rs=3 pad=1 qm=0.05\n");
            break;
        default:
            m = pick({8, 16, 32}, rng);
            text += strCat("pointwise name=l", l, " c=", c, " hw=", hw,
                           " m=", m, "\n");
            c = m;
            break;
        }
    }
    return text;
}

/** One request line; optional fields are omitted when empty/zero. */
std::string
requestLine(size_t index, Rng &rng, int64_t arrival_us,
            const std::string &kind_field, const std::string &extra)
{
    const uint64_t client = rng.below(4);
    const uint64_t priority = rng.below(3);
    const uint64_t seed = rng.below(uint64_t(1) << 32);
    return strCat("{\"id\":\"r", index, "\",\"client\":\"c", client,
                  "\",\"priority\":", priority, ",\"arrival_us\":", arrival_us,
                  ",", kind_field, extra, ",\"seed\":", seed, "}");
}

using RequestKind = std::pair<std::string, std::string>;

/** Put @p v in the fixed catalogue order. For serving requests this also
 *  decides which simulations share the host at once, since the pool runs
 *  them in intake order. */
template <typename T>
void
catalogOrder(std::vector<T> &v)
{
    Rng order = Rng::forStream(kCatalogSeed, kOrderStream);
    shuffle(v, order);
}

/** Pin arrivals of @p requests with gaps uniform in [1, 399] virtual
 *  microseconds; @p warmup is served on its own. */
TraceInputs
toTrace(std::vector<RequestKind> requests, const RequestKind &warmup,
        Rng &rng)
{
    catalogOrder(requests);
    TraceInputs out;
    int64_t t = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
        t += rng.range(1, 399);
        out.lines.push_back(
            requestLine(i, rng, t, requests[i].first, requests[i].second));
        out.canonical += out.lines.back() + "\n";
    }
    out.warmup = requestLine(requests.size(), rng, 0, warmup.first,
                             warmup.second);
    out.canonical += "warmup " + out.warmup + "\n";
    return out;
}

} // namespace

bool
makeModelSearchInputs(uint64_t seed, ModelSearchInputs *out,
                      std::string *error)
{
    ModelSearchInputs in;
    for (const char *name : {"resnet_block", "mobilenet_slice", "bert_mlp"}) {
        const feather::model::ModelGraph *g = feather::model::findModel(name);
        if (!g) {
            *error = strCat("built-in model ", name, " is missing");
            return false;
        }
        in.graphs.push_back(*g);
        in.canonical += strCat("builtin ", name, "\n");
    }
    std::vector<std::string> texts;
    std::ifstream file("models/tiny_cnn.model", std::ios::binary);
    if (!file) {
        *error = "cannot read models/tiny_cnn.model (run from the repo root)";
        return false;
    }
    std::ostringstream tiny;
    tiny << file.rdbuf();
    texts.push_back(tiny.str());
    for (size_t i = 0; i < kChains; ++i) texts.push_back(chainText(i));
    for (const std::string &text : texts) {
        const std::optional<feather::model::ModelGraph> g =
            feather::model::parseModelText(text, "graph", error);
        if (!g) return false;
        in.graphs.push_back(*g);
        in.canonical += text;
    }

    Rng rng = Rng::forStream(seed, 0);
    for (size_t g = 0; g < in.graphs.size(); ++g) {
        in.ops.push_back({g, rng.below(uint64_t(1) << 32)});
    }
    catalogOrder(in.ops);
    in.warmup = {0, rng.below(uint64_t(1) << 32)};
    for (const ModelOp &op : in.ops) {
        in.canonical += strCat("op ", in.graphs[op.graph].name, " seed=",
                               op.data_seed, "\n");
    }
    in.canonical += strCat("warmup seed=", in.warmup.data_seed, "\n");
    *out = std::move(in);
    return true;
}

SweepInputs
makeSweepInputs(uint64_t seed)
{
    // Every scenario sweeps the same 24 shapes per round in 4 sweeps of 6.
    // Which shapes share a sweep is fixed (catalogue seed), so each op's
    // cost is too; --seed orders the shapes inside each sweep.
    std::vector<std::pair<int, int>> shapes;
    for (int aw : {4, 8, 16, 32}) {
        for (int ah : {4, 8, 12, 16, 32, 64}) shapes.emplace_back(aw, ah);
    }
    Rng catalog = Rng::forStream(kCatalogSeed, kSweepGroupStream);
    Rng rng = Rng::forStream(seed, 1);
    SweepInputs in;
    for (const ScenarioShape &s : kScenarios) {
        shuffle(shapes, catalog);
        for (size_t g = 0; g < shapes.size(); g += 6) {
            SweepOp op;
            op.scenario = s.name;
            op.arrays.assign(shapes.begin() + long(g),
                             shapes.begin() + long(g + 6));
            shuffle(op.arrays, rng);
            op.base_seed = rng.below(uint64_t(1) << 32);
            in.ops.push_back(std::move(op));
        }
    }
    catalogOrder(in.ops);
    in.warmup.scenario = "conv3x3";
    in.warmup.arrays = {{4, 4}, {8, 8}, {16, 16}, {32, 32}, {8, 16}, {16, 8}};
    in.warmup.base_seed = rng.below(uint64_t(1) << 32);
    const auto describe = [&in](const char *what, const SweepOp &op) {
        in.canonical += strCat(what, " ", op.scenario, " seed=", op.base_seed);
        for (const auto &[aw, ah] : op.arrays) {
            in.canonical += strCat(" ", aw, "x", ah);
        }
        in.canonical += "\n";
    };
    for (const SweepOp &op : in.ops) describe("sweep", op);
    describe("warmup", in.warmup);
    return in;
}

TraceInputs
makeMixedTrace(uint64_t seed)
{
    // Per scenario, 8 (engine, dataflow) slots: a quarter analytic, half
    // with a pinned dataflow, and the last 6 on the cycle tier. Every
    // (scenario, slot) kind comes 10 times, and the cycle-tier kinds of
    // the 8 scenarios that are neither GEMM nor depthwise once more: 1008
    // requests, 23.8% analytic, 50% pinned. The daemon's cache misses on
    // the first use of each plan only. Without the 48 extra requests
    // exactly half the requests (the analytic tier and the cycle-tier
    // GEMM and depthwise ones) finish in under 0.5 ms and half take over
    // 1.2 ms: the median then falls in the gap, and one delayed request
    // moves op_ms_p50 by half.
    static const char *const kSlots[] = {
        ",\"engine\":\"analytic\"",
        ",\"dataflow\":\"ws\",\"engine\":\"analytic\"",
        "",
        "",
        "",
        ",\"dataflow\":\"ws\"",
        ",\"dataflow\":\"cp\"",
        ",\"dataflow\":\"wp\"",
    };
    constexpr size_t kFirstCycleSlot = 2;
    std::vector<RequestKind> requests;
    const auto add = [&requests](const ScenarioShape &s, size_t first_slot) {
        for (size_t k = first_slot; k < std::size(kSlots); ++k) {
            requests.emplace_back(strCat("\"scenario\":\"", s.name, "\""),
                                  kSlots[k]);
        }
    };
    for (int copy = 0; copy < 10; ++copy) {
        for (const ScenarioShape &s : kScenarios) add(s, 0);
    }
    for (const ScenarioShape &s : kScenarios) {
        const std::string name = s.name;
        if (name != "depthwise" && name.compare(0, 4, "gemm") != 0) {
            add(s, kFirstCycleSlot);
        }
    }
    Rng rng = Rng::forStream(seed, 2);
    return toTrace(std::move(requests), {"\"scenario\":\"conv3x3\"", ""},
                   rng);
}

TraceInputs
makeFleetTrace(uint64_t seed)
{
    // 36 whole-model requests, the 3 built-ins x {per-layer, greedy} in 8,
    // 8 and 2 copies, and 12 scenario requests. Scenario requests pin their
    // default shape so their cycles do not depend on which device placement
    // picks. Served, bert_mlp and the scenarios take under 30 ms, resnet_block
    // about 160 ms and mobilenet_slice about 260 ms. With equal copies the
    // fast ones would be exactly half, and op_ms_p50 would sit in the gap
    // between 30 and 160 ms. With these weights each group is a third: the
    // median falls in the middle of resnet_block, p90 inside mobilenet_slice.
    std::vector<RequestKind> requests;
    for (const auto &[model, copies] :
         {std::pair<const char *, int>{"resnet_block", 8},
          {"mobilenet_slice", 8},
          {"bert_mlp", 2}}) {
        for (int copy = 0; copy < copies; ++copy) {
            for (const char *schedule : {"per-layer", "greedy"}) {
                requests.emplace_back(
                    strCat("\"model\":\"", model, "\",\"schedule\":\"",
                           schedule, "\""),
                    "");
            }
        }
    }
    for (const ScenarioShape &s : kScenarios) {
        requests.emplace_back(strCat("\"scenario\":\"", s.name, "\""),
                              strCat(",\"aw\":", s.aw, ",\"ah\":", s.ah));
    }
    Rng rng = Rng::forStream(seed, 3);
    return toTrace(std::move(requests), {"\"model\":\"resnet_block\"", ""},
                   rng);
}

} // namespace bench
