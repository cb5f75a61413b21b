#include "sim/scenario.hpp"

#include <cmath>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "dataflow/mapping.hpp"
#include "feather/accelerator.hpp"

namespace feather {
namespace sim {

namespace {

/** Output-channel count of a conv-like layer ([N,M,P,Q] oActs). */
int64_t
outChannels(const LayerSpec &l)
{
    return l.conv.depthwise ? l.conv.c : l.conv.m;
}

std::string
bindingError(const LayerSpec &prev, const LayerSpec &cur)
{
    const bool prev_conv = prev.type != OpType::Gemm;
    const bool cur_conv = cur.type != OpType::Gemm;
    if (prev_conv != cur_conv) {
        return strCat(prev.name, " -> ", cur.name,
                      ": conv<->GEMM bindings are not supported (a GEMM "
                      "cannot read conv activations in place)");
    }
    if (prev_conv) {
        if (outChannels(prev) != cur.conv.c) {
            return strCat(prev.name, " writes ", outChannels(prev),
                          " channels but ", cur.name, " reads ", cur.conv.c);
        }
        if (prev.conv.outH() != cur.conv.h ||
            prev.conv.outW() != cur.conv.w) {
            return strCat(prev.name, " writes ", prev.conv.outH(), "x",
                          prev.conv.outW(), " activations but ", cur.name,
                          " reads ", cur.conv.h, "x", cur.conv.w);
        }
        return "";
    }
    if (prev.gemm.m != cur.gemm.m) {
        return strCat(prev.name, " writes M=", prev.gemm.m, " rows but ",
                      cur.name, " reads M=", cur.gemm.m);
    }
    if (prev.gemm.n != cur.gemm.k) {
        return strCat(prev.name, " writes N=", prev.gemm.n, " columns but ",
                      cur.name, " reads K=", cur.gemm.k);
    }
    return "";
}

/** Every dim a layout names must exist in the target tensor, else binding
 *  it downstream dies on an internal CHECK instead of a clean CLI error. */
std::string
layoutDimError(const Layout &layout, const LayerSpec &layer,
               const Extents &extents, const char *what)
{
    const auto check = [&](Dim d) -> std::string {
        if (extents[d] > 0) return "";
        return strCat("layout '", layout.toString(), "' uses dim ",
                      toString(d), " which ", layer.name, "'s ", what,
                      " do not have");
    };
    for (Dim d : layout.interOrder()) {
        const std::string why = check(d);
        if (!why.empty()) return why;
    }
    for (const IntraFactor &f : layout.intraFactors()) {
        const std::string why = check(f.dim);
        if (!why.empty()) return why;
    }
    return "";
}

std::vector<ModelGraph>
buildScenarios()
{
    std::vector<ModelGraph> all;

    all.push_back({"quickstart_conv",
                   "8-channel 8x8 conv 3x3 on a 4x4 array (the quickstart)",
                   {{convLayer("quickstart_conv", 8, 8, 8, 3, 1, 1),
                     DataflowKind::Canonical, 0.03f}},
                   4, 4});

    all.push_back({"conv3x3",
                   "16-channel 14x14 conv 3x3, channel-parallel columns",
                   {{convLayer("conv3x3", 16, 14, 16, 3, 1, 1),
                     DataflowKind::ChannelParallel}},
                   8, 8});

    all.push_back({"conv1x1",
                   "32-channel 14x14 pointwise conv, canonical mapping",
                   {{convLayer("conv1x1", 32, 14, 32, 1, 1, 0),
                     DataflowKind::Canonical}},
                   8, 8});

    all.push_back({"conv_window",
                   "conv 3x3 with window-parallel (Q) columns",
                   {{convLayer("conv_window", 8, 14, 16, 3, 1, 1),
                     DataflowKind::WindowParallel}},
                   8, 8});

    all.push_back({"depthwise",
                   "8-channel 6x6 depthwise conv 3x3",
                   {{depthwiseLayer("depthwise", 8, 6, 3, 1, 1),
                     DataflowKind::Canonical, 0.1f}},
                   4, 4});

    all.push_back({"gemm",
                   "GEMM M8 N6 K32 (the Fig. 10 steady-state shape)",
                   {{gemmLayer("gemm", 8, 6, 32), DataflowKind::Canonical}},
                   4, 4});

    all.push_back({"gemm_skewed",
                   "skewed GEMM M8 N3 K12 (Fig. 10 workload C)",
                   {{gemmLayer("gemm_skewed", 8, 3, 12),
                     DataflowKind::Canonical}},
                   4, 4});

    all.push_back(
        {"resnet_block",
         "scaled ResNet bottleneck 1x1 -> 3x3 -> 1x1, per-layer "
         "(dataflow, layout) co-switch through the StaB ping-pong",
         {{convLayer("reduce_1x1", 32, 14, 8, 1, 1, 0),
           DataflowKind::WindowParallel},
          {convLayer("conv_3x3", 8, 14, 8, 3, 1, 1),
           DataflowKind::ChannelParallel, 0.03f},
          {convLayer("expand_1x1", 8, 14, 32, 1, 1, 0),
           DataflowKind::WindowParallel}},
         8, 8});

    all.push_back(
        {"mobilenet_bneck",
         "scaled MobileNet-V3 bneck: expand 1x1 -> depthwise 3x3 -> "
         "project 1x1",
         {{convLayer("expand_1x1", 16, 14, 32, 1, 1, 0),
           DataflowKind::Canonical},
          {depthwiseLayer("dw_3x3", 32, 14, 3, 1, 1), // outputs 14x14
           DataflowKind::Canonical, 0.05f},
          {convLayer("project_1x1", 32, 14, 16, 1, 1, 0),
           DataflowKind::Canonical}},
         8, 8});

    all.push_back(
        {"dw_separable",
         "depthwise 3x3 -> pointwise 1x1 separable pair (MobileNet's "
         "workhorse block) with a dataflow switch between them",
         {{depthwiseLayer("dw_3x3", 16, 14, 3, 1, 1),
           DataflowKind::Canonical, 0.05f},
          {convLayer("pw_1x1", 16, 14, 32, 1, 1, 0),
           DataflowKind::ChannelParallel}},
         8, 8});

    all.push_back(
        {"gemm_chain",
         "3-layer GEMM MLP K32 -> N16 -> N8 -> N4 threaded through the "
         "StaB ping-pong (each output is the next GEMM's [M,K] input)",
         {{gemmLayer("fc1", 8, 16, 32), DataflowKind::Canonical, 0.03f},
          {gemmLayer("fc2", 8, 8, 16), DataflowKind::Canonical, 0.03f},
          {gemmLayer("fc3", 8, 4, 8), DataflowKind::Canonical, 0.05f}},
         4, 4});

    all.push_back({"conv_stride2",
                   "stride-2 3x3 downsampling conv (16ch 14x14 -> 32ch 7x7)",
                   {{convLayer("down_3x3", 16, 14, 32, 3, 2, 1),
                     DataflowKind::ChannelParallel}},
                   8, 8});

    return all;
}

/** The unplanned chain of @p scenario: each layer with its QM multiplier. */
std::vector<ChainStep>
chainSteps(const ModelGraph &scenario)
{
    std::vector<ChainStep> steps;
    for (const ModelLayer &ml : scenario.layers) {
        ChainStep step;
        step.layer = ml.spec;
        step.quant.multiplier = ml.multiplier;
        steps.push_back(std::move(step));
    }
    return steps;
}

} // namespace

std::string
ModelGraph::validate() const
{
    if (layers.empty()) {
        return strCat("model '", name, "' has no layers");
    }
    for (size_t i = 0; i < layers.size(); ++i) {
        const LayerSpec &l = layers[i].spec;
        if (!isMacOp(l.type)) {
            return strCat("layer ", l.name, " (", toString(l.type),
                          ") is not a MAC operator");
        }
        // requantize rounds x * multiplier to an integer, which is
        // undefined for inf/NaN; NaN also slips past a plain `<= 0`.
        if (!std::isfinite(layers[i].multiplier) ||
            !(layers[i].multiplier > 0.0f)) {
            return strCat("layer ", l.name,
                          " needs a finite positive qm multiplier, got ",
                          layers[i].multiplier);
        }
        if (i == 0) continue;
        const std::string why = bindingError(layers[i - 1].spec, l);
        if (!why.empty()) return why;
    }
    return "";
}

int64_t
ModelGraph::totalMacs() const
{
    int64_t total = 0;
    for (const ModelLayer &l : layers) total += l.spec.macs();
    return total;
}

const std::vector<ModelGraph> &
scenarios()
{
    static const std::vector<ModelGraph> all = buildScenarios();
    return all;
}

const ModelGraph *
findScenario(const std::string &name)
{
    for (const ModelGraph &s : scenarios()) {
        if (s.name == name) return &s;
    }
    return nullptr;
}

std::vector<std::string>
scenarioNames()
{
    std::vector<std::string> names;
    for (const ModelGraph &s : scenarios()) names.push_back(s.name);
    return names;
}

std::string
arrayShapeError(int aw, int ah)
{
    // BIRRD is a power-of-two butterfly; reject up front instead of
    // panicking inside the topology constructor.
    if (aw < 2 || !isPow2(uint64_t(aw))) {
        return strCat("array width (--aw) must be a power of two >= 2, got ",
                      aw);
    }
    if (aw > kMaxFeatherCols) {
        return strCat("array width (--aw) must be in 2..", kMaxFeatherCols,
                      ", got ", aw);
    }
    return ah < 1 ? "array height (--ah) must be >= 1" : "";
}

std::optional<ScenarioRun>
runScenario(const ModelGraph &scenario, const ScenarioOptions &opts,
            std::string *error, const PlanFn &plan)
{
    if (const std::string why = scenario.validate(); !why.empty()) {
        if (error) *error = why;
        return std::nullopt;
    }
    ScenarioRun run;
    run.aw = opts.aw > 0 ? opts.aw : scenario.default_aw;
    run.ah = opts.ah > 0 ? opts.ah : scenario.default_ah;
    if (std::string why = arrayShapeError(run.aw, run.ah); !why.empty()) {
        if (error) *error = std::move(why);
        return std::nullopt;
    }

    std::optional<DataflowKind> override_kind;
    if (!opts.dataflow.empty()) {
        override_kind = parseDataflow(opts.dataflow);
        if (!override_kind) {
            if (error) {
                *error = "unknown dataflow '" + opts.dataflow +
                         "' (expected ws|cp|wp or their long names)";
            }
            return std::nullopt;
        }
    }

    RunOptions ropts;
    ropts.aw = run.aw;
    ropts.ah = run.ah;
    ropts.engine = opts.engine;
    ropts.seed = opts.seed;
    ropts.reference = opts.reference;
    ropts.trace_events = opts.trace_events;

    // Plan every layer up front (through the injected plan source) so the
    // chain below is pure execution: step i's oActs materialise directly in
    // step i+1's concordant input layout (the paper's co-switch).
    std::vector<LayerPlan> plans;
    for (const ModelLayer &ml : scenario.layers) {
        const std::optional<DataflowKind> kind =
            override_kind ? override_kind : ml.dataflow;
        if (!kind) {
            if (error) *error = strCat("layer ", ml.spec.name, " pins no "
                                       "dataflow and none was given");
            return std::nullopt;
        }
        std::optional<LayerPlan> p =
            plan ? plan(opts.engine, *kind, ml.spec, run.aw, run.ah, error)
                 : planLayer(*kind, ml.spec, run.aw, run.ah, error,
                             opts.engine);
        if (!p) return std::nullopt;
        plans.push_back(std::move(*p));
    }

    std::vector<ChainStep> steps = chainSteps(scenario);
    for (size_t i = 0; i < steps.size(); ++i) {
        steps[i].mapping = plans[i].mapping;
        steps[i].out_layout = i + 1 < plans.size() ? plans[i + 1].in_layout
                                                   : plans.back().out_layout;
    }
    ropts.in_layout = plans.front().in_layout;

    if (!opts.layout.empty() && opts.layout != "concordant") {
        const std::optional<Layout> in = tryParseLayout(opts.layout, error);
        if (!in) return std::nullopt;
        const LayerSpec &first = scenario.layers.front().spec;
        const std::string why =
            layoutDimError(*in, first, iactExtents(first),
                           first.type == OpType::Gemm ? "[M,K] iActs"
                                                      : "[N,C,H,W] iActs");
        if (!why.empty()) {
            if (error) *error = why;
            return std::nullopt;
        }
        ropts.in_layout = *in;
    }

    if (!opts.out_layout.empty() && opts.out_layout != "concordant") {
        const std::optional<Layout> out =
            tryParseLayout(opts.out_layout, error);
        if (!out) return std::nullopt;
        const LayerSpec &last = scenario.layers.back().spec;
        // oAct layouts are written in next-layer iAct space (RIR: the pong
        // buffer holds the next layer's inputs); validate against the same
        // binding FeatherAccelerator::run applies.
        const std::string why = layoutDimError(
            *out, last, oactIactExtents(last),
            last.type == OpType::Gemm ? "oActs (next layer's [M,K] iActs)"
                                      : "oActs (next layer's [C,H,W] iActs)");
        if (!why.empty()) {
            if (error) *error = why;
            return std::nullopt;
        }
        steps.back().out_layout = *out;
    }

    run.chain = runChain(steps, ropts);
    return run;
}

Int8Tensor
scenarioReference(const ModelGraph &scenario, uint64_t seed)
{
    const std::vector<ChainStep> steps = chainSteps(scenario);
    return chainReference(steps, drawChainInputs(steps, seed));
}

} // namespace sim
} // namespace feather
