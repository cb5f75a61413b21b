#include "sim/driver.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "feather/analytic.hpp"
#include "tensor/reference_ops.hpp"

namespace feather {
namespace sim {

namespace {

/** First cols dim with degree > 1 (the dim that actually spans banks). */
std::optional<Dim>
leadColDim(const NestMapping &mapping)
{
    for (const ParallelDim &pd : mapping.cols) {
        if (pd.degree > 1) return pd.dim;
    }
    return std::nullopt;
}

} // namespace

// ---------------------------------------------------------------------------
// Layer construction
// ---------------------------------------------------------------------------

LayerSpec
convLayer(std::string name, int64_t c, int64_t hw, int64_t m, int64_t rs,
          int64_t stride, int64_t pad)
{
    return convLayer2d(std::move(name), c, hw, hw, m, rs, rs, stride, pad);
}

LayerSpec
convLayer2d(std::string name, int64_t c, int64_t h, int64_t w, int64_t m,
            int64_t r, int64_t s, int64_t stride, int64_t pad)
{
    LayerSpec l;
    l.name = std::move(name);
    l.type = OpType::Conv;
    l.conv = ConvShape{1, c, h, w, m, r, s, stride, pad, false};
    return l;
}

LayerSpec
depthwiseLayer(std::string name, int64_t c, int64_t hw, int64_t rs,
               int64_t stride, int64_t pad)
{
    LayerSpec l;
    l.name = std::move(name);
    l.type = OpType::DepthwiseConv;
    l.conv = ConvShape{1, c, hw, hw, c, rs, rs, stride, pad, true};
    return l;
}

LayerSpec
gemmLayer(std::string name, int64_t m, int64_t n, int64_t k)
{
    LayerSpec l;
    l.name = std::move(name);
    l.type = OpType::Gemm;
    l.gemm = GemmShape{m, n, k};
    return l;
}

// ---------------------------------------------------------------------------
// Inputs and golden reference
// ---------------------------------------------------------------------------

Int8Tensor
randomIacts(const LayerSpec &layer, Rng &rng, int lo, int hi)
{
    Int8Tensor t = layer.type == OpType::Gemm
                       ? Int8Tensor({layer.gemm.m, layer.gemm.k})
                       : Int8Tensor({layer.conv.n, layer.conv.c, layer.conv.h,
                                     layer.conv.w});
    t.randomize(rng, lo, hi);
    return t;
}

Int8Tensor
randomWeights(const LayerSpec &layer, Rng &rng, int lo, int hi)
{
    Int8Tensor t;
    switch (layer.type) {
    case OpType::Gemm:
        t = Int8Tensor({layer.gemm.k, layer.gemm.n});
        break;
    case OpType::DepthwiseConv:
        t = Int8Tensor({layer.conv.c, 1, layer.conv.r, layer.conv.s});
        break;
    default:
        t = Int8Tensor({layer.conv.m, layer.conv.c, layer.conv.r,
                        layer.conv.s});
        break;
    }
    t.randomize(rng, lo, hi);
    return t;
}

Int8Tensor
referenceOutput(const LayerSpec &layer, const Int8Tensor &iacts,
                const Int8Tensor &weights, const LayerQuant &quant)
{
    Int32Tensor acc;
    switch (layer.type) {
    case OpType::Gemm:
        acc = gemm(iacts, weights, quant.iact_zp, quant.weight_zp);
        break;
    case OpType::DepthwiseConv:
        acc = depthwiseConv2d(iacts, weights, layer.conv.stride,
                              layer.conv.pad, quant.iact_zp, quant.weight_zp);
        break;
    case OpType::Conv:
        acc = conv2d(iacts, weights, layer.conv.stride, layer.conv.pad,
                     quant.iact_zp, quant.weight_zp);
        break;
    default:
        FEATHER_CHECK(false, "referenceOutput: ", toString(layer.type),
                      " is not a MAC operator");
    }
    return requantizeTensor(acc, quant.multiplier, quant.oact_zp);
}

int64_t
countMismatches(const Int8Tensor &got, const Int8Tensor &want)
{
    if (got.shape() != want.shape()) return want.numel();
    int64_t bad = 0;
    for (int64_t i = 0; i < want.numel(); ++i) {
        if (got[size_t(i)] != want[size_t(i)]) ++bad;
    }
    return bad;
}

// ---------------------------------------------------------------------------
// Dataflow selection
// ---------------------------------------------------------------------------

std::optional<DataflowKind>
parseDataflow(const std::string &name)
{
    if (name == "ws" || name == "canonical") return DataflowKind::Canonical;
    if (name == "cp" || name == "channel-parallel") {
        return DataflowKind::ChannelParallel;
    }
    if (name == "wp" || name == "window-parallel") {
        return DataflowKind::WindowParallel;
    }
    return std::nullopt;
}

std::string
toString(DataflowKind kind)
{
    switch (kind) {
    case DataflowKind::Canonical: return "canonical";
    case DataflowKind::ChannelParallel: return "channel-parallel";
    case DataflowKind::WindowParallel: return "window-parallel";
    }
    return "?";
}

std::optional<NestMapping>
buildMapping(DataflowKind kind, const LayerSpec &layer, int aw, int ah,
             std::string *error)
{
    NestMapping m;
    const ConvShape &c = layer.conv;
    // GEMM and depthwise have one natural mapping family each; the named
    // families below only diversify standard convolutions.
    if (kind == DataflowKind::Canonical || layer.type == OpType::Gemm ||
        layer.type == OpType::DepthwiseConv) {
        m = NestMapping::canonical(layer, aw, ah);
    } else if (kind == DataflowKind::ChannelParallel) {
        m.local = {{Dim::R, c.r}, {Dim::S, c.s}};
        m.cols = {{Dim::C, fitPow2(c.c, aw)}};
        m.rows = {{Dim::M, fitPow2(c.m, ah)}};
    } else { // WindowParallel
        // Columns sweep output windows; the reduction is purely temporal
        // (local R/S plus a C-tile that keeps Phase 1 at least AH long).
        m.local = {{Dim::R, c.r}, {Dim::S, c.s}};
        int64_t local_c = 1;
        while (c.r * c.s * local_c < ah && local_c * 2 <= c.c) local_c *= 2;
        if (local_c > 1) m.local.push_back({Dim::C, local_c});
        m.cols = {{Dim::Q, fitPow2(c.outW(), aw)}};
        m.rows = {{Dim::M, fitPow2(c.m, ah)}};
    }
    std::string why = m.validate(layer, aw, ah);
    // The PE register file bounds Phase 1: a longer local tile is a family
    // that does not fit, not a run to abort (checkNestMapping's invariant).
    const int max_local = FeatherConfig().max_local;
    if (why.empty() && m.t1() > max_local) {
        why = strCat("local tile ", m.t1(), " exceeds the PE register file (",
                     max_local, ")");
    }
    if (!why.empty()) {
        if (error) {
            *error = toString(kind) + " does not fit " + layer.name + ": " +
                     why;
        }
        return std::nullopt;
    }
    return m;
}

std::optional<Layout>
tryParseLayout(const std::string &text, std::string *error)
{
    const auto fail = [&](const std::string &why) -> std::optional<Layout> {
        if (error) *error = "layout '" + text + "': " + why;
        return std::nullopt;
    };
    // Valid dim letters come from the Dim enum itself so this pre-pass
    // cannot drift from what parseDim() accepts.
    std::string dims;
    for (int d = 0; d < kNumDims; ++d) dims += dimName(Dim(d));
    const size_t underscore = text.find('_');
    if (underscore == std::string::npos) {
        return fail("missing '_' separator");
    }
    for (size_t i = 0; i < underscore; ++i) {
        if (dims.find(text[i]) == std::string::npos) {
            return fail(std::string("unknown dimension '") + text[i] + "'");
        }
    }
    size_t i = underscore + 1;
    if (i >= text.size()) return fail("no intra factors");
    while (i < text.size()) {
        if (dims.find(text[i]) == std::string::npos) {
            return fail(std::string("unknown dimension '") + text[i] + "'");
        }
        ++i;
        if (i >= text.size() || !std::isdigit(uint8_t(text[i]))) {
            return fail("intra dim needs a size");
        }
        int64_t size = 0;
        while (i < text.size() && std::isdigit(uint8_t(text[i]))) {
            size = size * 10 + (text[i] - '0');
            ++i;
        }
        if (size < 1) return fail("intra size must be >= 1");
    }
    return Layout::parse(text);
}

Layout
concordantInputLayout(const LayerSpec &layer, const NestMapping &mapping,
                      int aw)
{
    if (layer.type == OpType::Gemm) {
        return Layout::parse(
            "MK_K" + std::to_string(std::min<int64_t>(aw, layer.gemm.k)));
    }
    const std::optional<Dim> lead = leadColDim(mapping);
    if (lead == Dim::Q || lead == Dim::P) {
        // Window-parallel columns read consecutive W positions: row-major.
        return Layout::parse(
            "CHW_W" + std::to_string(std::min<int64_t>(aw, layer.conv.w)));
    }
    // Channel-parallel columns (and the degenerate all-temporal case) read
    // consecutive channels: channel-last.
    return Layout::parse(
        "HWC_C" + std::to_string(std::min<int64_t>(aw, layer.conv.c)));
}

Layout
concordantOutputLayout(const LayerSpec &layer, const NestMapping &mapping,
                       int aw)
{
    if (layer.type == OpType::Gemm) {
        // The [M,N] oActs are the next GEMM's [M,K]: K-tiled lines.
        return Layout::parse(
            "MK_K" + std::to_string(std::min<int64_t>(aw, layer.gemm.n)));
    }
    const std::optional<Dim> lead = leadColDim(mapping);
    if (lead == Dim::Q || lead == Dim::P) {
        return Layout::parse(
            "CHW_W" +
            std::to_string(std::min<int64_t>(aw, layer.conv.outW())));
    }
    // The M output channels are the next layer's input channels.
    return Layout::parse(
        "HWC_C" + std::to_string(std::min<int64_t>(aw, layer.conv.m)));
}

std::optional<LayerPlan>
planLayer(DataflowKind kind, const LayerSpec &layer, int aw, int ah,
          std::string *error, EngineMode mode)
{
    const std::optional<NestMapping> mapping =
        buildMapping(kind, layer, aw, ah, error);
    if (!mapping) return std::nullopt;
    LayerPlan plan;
    plan.mapping = *mapping;
    plan.in_layout = concordantInputLayout(layer, *mapping, aw);
    plan.out_layout = concordantOutputLayout(layer, *mapping, aw);
    plan.engine = mode;
    return plan;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

RunResult
runLayer(const LayerSpec &layer, const RunOptions &opts)
{
    ChainResult chain = runChain(
        {ChainStep{layer, opts.mapping, opts.out_layout, opts.quant}}, opts);
    RunResult res = std::move(chain.layers.front());
    res.checked = chain.checked;
    res.mismatches = chain.mismatches;
    return res;
}

ChainInputs
drawChainInputs(const std::vector<ChainStep> &steps, uint64_t seed)
{
    Rng rng(seed);
    ChainInputs in;
    in.iacts = randomIacts(steps.front().layer, rng);
    for (const ChainStep &s : steps) {
        in.weights.push_back(randomWeights(s.layer, rng));
    }
    return in;
}

Int8Tensor
chainReference(const std::vector<ChainStep> &steps, const ChainInputs &in)
{
    Int8Tensor ref = referenceOutput(steps[0].layer, in.iacts, in.weights[0],
                                     steps[0].quant);
    for (size_t i = 1; i < steps.size(); ++i) {
        ref = referenceOutput(steps[i].layer, ref, in.weights[i],
                              steps[i].quant);
    }
    return ref;
}

ChainResult
runChain(const std::vector<ChainStep> &steps, const RunOptions &opts)
{
    FEATHER_CHECK(!steps.empty(), "runChain: no steps");
    FeatherConfig cfg;
    cfg.aw = opts.aw;
    cfg.ah = opts.ah;

    // Resolve every step's mapping up front so step i can default its
    // output to step i+1's concordant input (the paper's co-switch). Both
    // tiers evaluate exactly this plan.
    std::vector<NestMapping> mappings;
    for (const ChainStep &s : steps) {
        mappings.push_back(s.mapping ? *s.mapping
                                     : NestMapping::canonical(s.layer, opts.aw,
                                                              opts.ah));
    }
    const Layout first_in =
        opts.in_layout
            ? *opts.in_layout
            : concordantInputLayout(steps.front().layer, mappings.front(),
                                    opts.aw);

    // Only the cycle tier moves data: seeded inputs on one accelerator,
    // threaded through the StaB ping-pong and checked against the chained
    // reference ops. The analytic tier builds no accelerator and draws no
    // tensors (checked stays 0, output stays empty).
    ChainInputs in;
    std::optional<FeatherAccelerator> acc;
    if (opts.engine == EngineMode::Cycle) {
        in = drawChainInputs(steps, opts.seed);
        acc.emplace(cfg);
        if (opts.trace_events > 0) acc->enableTrace(opts.trace_events);
        acc->loadIacts(in.iacts, first_in);
    }

    ChainResult res;
    for (size_t i = 0; i < steps.size(); ++i) {
        const ChainStep &s = steps[i];
        RunResult r;
        r.mapping = mappings[i];
        r.in_layout = i == 0 ? first_in : res.layers[i - 1].out_layout;
        if (s.out_layout) {
            r.out_layout = *s.out_layout;
        } else if (i + 1 < steps.size()) {
            r.out_layout = concordantInputLayout(steps[i + 1].layer,
                                                 mappings[i + 1], opts.aw);
        } else {
            r.out_layout = concordantOutputLayout(s.layer, r.mapping, opts.aw);
        }
        if (acc) {
            r.stats = acc->run(s.layer, in.weights[i], r.mapping,
                               r.out_layout, s.quant);
        } else {
            r.stats = analyticLayerStats(s.layer, r.mapping, r.in_layout,
                                         r.out_layout, cfg);
        }
        res.layers.push_back(std::move(r));
    }

    if (acc) {
        RunResult &last = res.layers.back();
        last.output = acc->readActivations();
        last.trace = acc->trace();
        if (opts.verify) {
            const Int8Tensor own =
                opts.reference ? Int8Tensor() : chainReference(steps, in);
            const Int8Tensor &ref = opts.reference ? *opts.reference : own;
            res.checked = ref.numel();
            res.mismatches = countMismatches(last.output, ref);
        }
    }
    return res;
}

int64_t
ChainResult::totalCycles() const
{
    int64_t total = 0;
    for (const RunResult &r : layers) total += r.stats.cycles;
    return total;
}

} // namespace sim
} // namespace feather
