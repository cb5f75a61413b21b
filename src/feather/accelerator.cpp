#include "feather/accelerator.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "dataflow/mapping.hpp"

namespace feather {

std::string
LayerStats::toString() const
{
    return strCat("cycles=", cycles, " (compute=", compute_cycles,
                  " wload=", weight_load_cycles, " fill=", fill_cycles,
                  " rstall=", read_stall_cycles, " wstall=",
                  write_stall_cycles, ") macs=", macs,
                  " stab r/w=", stab_reads, "/", stab_writes,
                  " ob=", ob_accumulates, " dram=", dram_words);
}

Extents
oactIactExtents(const LayerSpec &layer)
{
    Extents e;
    if (layer.type == OpType::Gemm) {
        e[Dim::M] = layer.gemm.m;
        e[Dim::K] = layer.gemm.n;
    } else {
        e[Dim::C] = layer.conv.depthwise ? layer.conv.c : layer.conv.m;
        e[Dim::H] = layer.conv.outH();
        e[Dim::W] = layer.conv.outW();
    }
    return e;
}

namespace {

/** StaB words per bank a tensor bound as @p bl takes: its lines, each
 *  spread over the AW banks. */
int64_t
stabWords(const BoundLayout &bl, int aw)
{
    return bl.numLines() * ceilDiv(bl.lineSize(), int64_t(aw));
}

/** @p out_layout bound in next-layer iAct space (oactIactExtents); panics
 *  unless it fits StaB pong. */
BoundLayout
boundOacts(const LayerSpec &layer, const Layout &out_layout,
           const FeatherConfig &cfg)
{
    BoundLayout out(out_layout, oactIactExtents(layer));
    FEATHER_CHECK(stabWords(out, cfg.aw) <= cfg.stab_depth,
                  "oacts exceed StaB capacity");
    return out;
}

/** The geometry of @p layer under @p mapping, once the mapping passes
 *  checkNestMapping and the layer is batch-1. */
NestGeometry
checkedGeometry(const LayerSpec &layer, const NestMapping &mapping,
                const FeatherConfig &cfg)
{
    checkNestMapping(layer, mapping, cfg);
    if (layer.type != OpType::Gemm) {
        FEATHER_CHECK(layer.conv.n == 1,
                      "the cycle simulator executes batch-1 conv layers");
    }
    return NestGeometry(layer, mapping);
}

/**
 * The Output Buffer, flat over the layer's output region: per word
 * (bank, addr) its partial sum and the partial sums it still awaits (0:
 * free), with the live (busy) words, their peak, and the words
 * completed, each one StaB pong write. A word opens on its first partial
 * sum. The countdown is the OB's control, which both whole-layer walks
 * keep; only the data path adds into the sums.
 */
struct ObCountdown
{
    /** The QM reads a sum as int32, so a 32-bit modular accumulator keeps
     *  every bit it reads. */
    struct Word
    {
        uint32_t sum = 0;
        int32_t remaining = 0;
    };
    std::vector<Word> words;
    int64_t depth = 0; ///< words per bank
    int32_t expected = 0;
    int64_t live = 0;
    int64_t peak = 0;
    int64_t completed = 0;

    void
    reset(int aw, int64_t out_words, int64_t expected_contribs)
    {
        FEATHER_CHECK(expected_contribs <= INT32_MAX,
                      "an OB word cannot count ", expected_contribs,
                      " partial sums");
        words.assign(size_t(aw) * size_t(out_words), Word{});
        depth = out_words;
        expected = int32_t(expected_contribs);
        live = peak = completed = 0;
    }

    Word &at(int64_t bank, int64_t addr)
    {
        return words[size_t(bank * depth + addr)];
    }

    /** Count one partial sum into word @p w; @return true when it was
     *  the word's last. */
    bool
    arrive(Word &w)
    {
        if (w.remaining == 0) {
            w.remaining = expected;
            peak = std::max(peak, ++live);
        }
        if (--w.remaining != 0) return false;
        --live;
        ++completed;
        return true;
    }
};

/**
 * The one step loop of a whole layer, for FeatherAccelerator::run (its
 * sink moves the data) and cycleLayerStats (its sink moves none): every
 * temporal step of @p geo through NestGeometry::step, with iActs under
 * @p in and oActs under @p out, on @p scratch (reset for @p geo). Weight
 * dims are a prefix of the temporal order, so the weight tile changes
 * exactly every inner_steps steps; each load goes into the shadow
 * ping-pong registers behind the compute since the last one, and
 * sink.tileLoaded() swaps them in. Besides NestGeometry::step's hooks,
 * @p sink has the OB countdown its accumulate drives (sink.ob, reset
 * here) and the index of the current step (sink.step_index).
 */
template <class Sink>
LayerStats
walkLayer(const NestGeometry &geo, const BoundLayout &in,
          const BoundLayout &out, const FeatherConfig &cfg,
          NestGeometry::StepScratch &scratch, Sink &sink)
{
    sink.ob.reset(cfg.aw, stabWords(out, cfg.aw), geo.expected_contribs);
    LayerStats stats;
    const int64_t inner_steps = geo.total_steps / geo.weight_steps;
    int64_t compute_since_load = 0;
    Coord step;
    do {
        const Coord base = geo.base(step);
        if (sink.step_index % inner_steps == 0) {
            geo.weightTile(base, sink, stats);
            stats.weight_load_cycles +=
                geo.exposedLoad(cfg, compute_since_load);
            sink.tileLoaded();
            compute_since_load = 0;
        }
        compute_since_load +=
            geo.step(base, in, out, cfg, scratch, sink, stats);
        ++sink.step_index;
    } while (geo.loops.advance(step));

    FEATHER_CHECK(sink.ob.live == 0, "OB has ", sink.ob.live,
                  " incomplete accumulations at layer end");
    stats.peak_ob_entries = sink.ob.peak;
    stats.stab_writes = sink.ob.completed;
    // The NEST iAct staging [aw x t1] and the step scratch.
    stats.arena_peak_bytes =
        int64_t(sizeof(int16_t)) * cfg.aw * geo.t1 + scratch.flatBytes();
    geo.finish(stats, cfg);
    return stats;
}

} // namespace

FeatherAccelerator::FeatherAccelerator(FeatherConfig cfg)
    : cfg_(cfg), nest_(cfg.aw, cfg.ah, cfg.max_local),
      stab_(BankedScratchpad<int8_t>(cfg.aw, cfg.stab_depth),
            BankedScratchpad<int8_t>(cfg.aw, cfg.stab_depth))
{
    FEATHER_CHECK(isPow2(uint64_t(cfg.aw)), "AW must be a power of two");
}

void
FeatherAccelerator::enableTrace(size_t max_events)
{
    // The trace grows as events arrive: the cap may be far beyond what
    // the run produces (or than memory holds), so nothing is reserved.
    trace_cap_ = max_events;
    trace_.clear();
}

void
FeatherAccelerator::recordTrace(TraceEvent::Kind kind, int64_t step,
                                int64_t bank, int64_t addr)
{
    if (trace_.size() < trace_cap_) {
        trace_.push_back(TraceEvent{kind, step, bank, addr});
    }
}

void
FeatherAccelerator::loadIacts(const Int8Tensor &iacts, const Layout &layout)
{
    Extents ext;
    const bool is_gemm = iacts.rank() == 2;
    if (is_gemm) {
        ext[Dim::M] = iacts.dim(0);
        ext[Dim::K] = iacts.dim(1);
    } else {
        FEATHER_CHECK(iacts.rank() == 4 && iacts.dim(0) == 1,
                      "conv iacts must be [1,C,H,W]");
        ext[Dim::C] = iacts.dim(1);
        ext[Dim::H] = iacts.dim(2);
        ext[Dim::W] = iacts.dim(3);
    }
    current_layout_ = BoundLayout(layout, ext);

    const BoundLayout &bl = current_layout_;
    const int64_t line_size = bl.lineSize();
    const int64_t wpl = ceilDiv(line_size, int64_t(cfg_.aw));
    const int64_t words = stabWords(bl, cfg_.aw);
    FEATHER_CHECK(words <= cfg_.stab_depth, "iacts exceed StaB capacity");
    stab_.ping().growBanks(words);
    // A bank's slots within one line (slot = bank + j*AW) land at contiguous
    // addresses line*wpl + j, so each (line, bank) run becomes one bulk
    // write — the DMA burst the host interface would issue. Each line is
    // decoded once; a slot adds its tabled intra offsets.
    std::vector<int8_t> burst(static_cast<size_t>(wpl));
    for (int64_t line = 0; line < bl.numLines(); ++line) {
        const Coord base = bl.lineBase(line);
        for (int64_t bank = 0; bank < std::min<int64_t>(cfg_.aw, line_size);
             ++bank) {
            int64_t n = 0;
            for (int64_t slot = bank; slot < line_size; slot += cfg_.aw) {
                const Coord &off = bl.slotOffset(slot);
                int8_t v = 0;
                if (is_gemm) {
                    const int64_t m = base[Dim::M] + off[Dim::M];
                    const int64_t k = base[Dim::K] + off[Dim::K];
                    if (m < ext[Dim::M] && k < ext[Dim::K]) {
                        v = iacts.at2(m, k);
                    }
                } else {
                    const int64_t c = base[Dim::C] + off[Dim::C];
                    const int64_t h = base[Dim::H] + off[Dim::H];
                    const int64_t w = base[Dim::W] + off[Dim::W];
                    if (c < ext[Dim::C] && h < ext[Dim::H] &&
                        w < ext[Dim::W]) {
                        v = iacts.at4(0, c, h, w);
                    }
                }
                burst[size_t(n++)] = v;
            }
            stab_.ping().writeRange(bank, line * wpl, burst.data(), n);
        }
    }
    iacts_loaded_ = true;
}

LayerStats
FeatherAccelerator::run(const LayerSpec &layer, const Int8Tensor &weights,
                        const NestMapping &mapping, const Layout &out_layout,
                        const LayerQuant &quant)
{
    FEATHER_CHECK(iacts_loaded_, "loadIacts() must precede run()");
    const NestGeometry geo = checkedGeometry(layer, mapping, cfg_);
    const BoundLayout out_bound = boundOacts(layer, out_layout, cfg_);
    stab_.pong().growBanks(stabWords(out_bound, cfg_.aw));

    // Per-run scratch, sized once here: no allocator traffic inside the
    // step loop.
    iact_vals_.assign(size_t(cfg_.aw) * size_t(geo.t1), int16_t(0));
    scratch_.reset(geo, cfg_.aw);
    nest_.setLocal(geo.t1);

    // The data movement NestGeometry::step and weightTile leave to the
    // cycle tier: StaB reads, NEST loads and emission, and the Output
    // Buffer's per-(bank,addr) accumulation, requantized and written to
    // StaB pong when its countdown completes. A row that reuses row 0's
    // gather moves no data: its iActs are row 0's, already in iact_vals.
    struct Datapath
    {
        FeatherAccelerator &acc;
        const NestGeometry &geo;
        const Int8Tensor &weights;
        const LayerQuant &quant;
        const int64_t t1;
        int16_t *iact_vals;
        int16_t *read_val;
        /** Each group's sum of the current row, reused across rows. */
        std::vector<uint32_t> group_sum;
        ObCountdown ob{};
        int64_t step_index = 0;

        void
        weight(int64_t r, int64_t c, int64_t l, const Coord *wc)
        {
            int16_t w = 0;
            if (wc) {
                const Coord &x = *wc;
                const int8_t raw =
                    geo.is_gemm     ? weights.at2(x[Dim::K], x[Dim::N])
                    : geo.depthwise ? weights.at4(x[Dim::C], 0, x[Dim::R],
                                                  x[Dim::S])
                                    : weights.at4(x[Dim::M], x[Dim::C],
                                                  x[Dim::R], x[Dim::S]);
                w = int16_t(int16_t(raw) - quant.weight_zp);
            }
            acc.nest_.loadWeight(int(r), int(c), int(l), w);
        }

        void tileLoaded() { acc.nest_.swapWeightBanks(); }

        void
        read(int64_t s, int64_t bank, int64_t addr)
        {
            read_val[s] = int16_t(int16_t(acc.stab_.ping().read(bank, addr)) -
                                  quant.iact_zp);
            acc.recordTrace(TraceEvent::Kind::StabRead, step_index, bank,
                            addr);
        }

        void
        iact(int64_t c, int64_t l, int64_t s)
        {
            iact_vals[size_t(c) * size_t(t1) + size_t(l)] =
                s < 0 ? int16_t(0) : read_val[s];
        }

        // A row that shares row 0's stream finds row 0's iActs still in
        // iact_vals (NestGeometry::step counts its reads), so only the
        // trace remains: one event per word when tracing.
        void
        reuse(const NestGeometry::StepScratch::GatherRead *first, int64_t n)
        {
            if (acc.trace_.size() >= acc.trace_cap_) return;
            for (int64_t i = 0; i < n; ++i) {
                acc.recordTrace(TraceEvent::Kind::StabRead, step_index,
                                first[i].bank, first[i].addr);
            }
        }

        // Phase 1 and the BIRRD reduction in one pass: each active
        // column's int32 dot product is added into its group's sum.
        // BIRRD delivers each group's sum to the group's bank (route()
        // verified that when the wave was compiled), so the sum is taken
        // once here and the waves only count switch hops. The sums are
        // uint32, the OB's modular width.
        void
        emit(int64_t r, const uint8_t *col_active)
        {
            std::fill(group_sum.begin(), group_sum.end(), uint32_t(0));
            for (int64_t c = 0; c < geo.cols_used; ++c) {
                if (!col_active[c]) continue;
                const int16_t *stream = iact_vals + size_t(c) * size_t(t1);
                group_sum[size_t(geo.cols[size_t(c)].group)] +=
                    uint32_t(acc.nest_.dot(int(r), int(c), stream));
            }
        }

        void
        accumulate(int64_t g, int64_t bank, int64_t addr)
        {
            ObCountdown::Word &w = ob.at(bank, addr);
            w.sum += group_sum[size_t(g)];
            if (!ob.arrive(w)) return;
            acc.stab_.pong().write(
                bank, addr,
                requantize(int32_t(w.sum), quant.multiplier, quant.oact_zp));
            acc.recordTrace(TraceEvent::Kind::StabWrite, step_index, bank,
                            addr);
            w.sum = 0;
        }
    };
    Datapath dp{*this,
                geo,
                weights,
                quant,
                geo.t1,
                iact_vals_.data(),
                scratch_.read_val.data(),
                std::vector<uint32_t>(size_t(geo.num_groups))};
    const LayerStats stats =
        walkLayer(geo, current_layout_, out_bound, cfg_, scratch_, dp);

    // The written pong becomes the next layer's ping (inter-layer
    // pipelining via the ping-pong StaB).
    stab_.swap();
    current_layout_ = out_bound;

    return stats;
}

LayerStats
cycleLayerStats(const LayerSpec &layer, const NestMapping &mapping,
                const Layout &in_layout, const Layout &out_layout,
                const FeatherConfig &cfg)
{
    const BoundLayout in_bound(in_layout, iactExtents(layer));
    FEATHER_CHECK(stabWords(in_bound, cfg.aw) <= cfg.stab_depth,
                  "iacts exceed StaB capacity");
    const NestGeometry geo = checkedGeometry(layer, mapping, cfg);
    const BoundLayout out_bound = boundOacts(layer, out_layout, cfg);

    // Nothing moves: the only state is the OB countdown (its sums stay
    // 0), which peak_ob_entries and stab_writes come from. Capacity
    // reused across calls.
    struct CountSink
    {
        ObCountdown &ob;
        int64_t step_index = 0;

        void weight(int64_t, int64_t, int64_t, const Coord *) {}
        void tileLoaded() {}
        void read(int64_t, int64_t, int64_t) {}
        void iact(int64_t, int64_t, int64_t) {}
        void reuse(const NestGeometry::StepScratch::GatherRead *, int64_t) {}
        void emit(int64_t, const uint8_t *) {}
        void
        accumulate(int64_t, int64_t bank, int64_t addr)
        {
            ob.arrive(ob.at(bank, addr));
        }
    };
    thread_local NestGeometry::StepScratch scratch;
    thread_local ObCountdown ob;
    scratch.reset(geo, cfg.aw);
    CountSink sink{ob};
    return walkLayer(geo, in_bound, out_bound, cfg, scratch, sink);
}

Int8Tensor
FeatherAccelerator::readActivations() const
{
    const BoundLayout &bl = current_layout_;
    const Extents &ext = bl.extents();
    const int64_t line_size = bl.lineSize();
    const int64_t wpl = ceilDiv(line_size, int64_t(cfg_.aw));
    const bool is_gemm = ext[Dim::K] > 0;

    Int8Tensor out =
        is_gemm ? Int8Tensor({ext[Dim::M], ext[Dim::K]})
                : Int8Tensor({1, ext[Dim::C], ext[Dim::H], ext[Dim::W]});
    // Mirror of loadIacts: one bulk peek per (line, bank) run, then scatter
    // into the tensor.
    std::vector<int8_t> burst(static_cast<size_t>(wpl));
    for (int64_t line = 0; line < bl.numLines(); ++line) {
        const Coord base = bl.lineBase(line);
        for (int64_t bank = 0; bank < std::min<int64_t>(cfg_.aw, line_size);
             ++bank) {
            const int64_t n = ceilDiv(line_size - bank, int64_t(cfg_.aw));
            stab_.ping().readRange(bank, line * wpl, burst.data(), n);
            for (int64_t j = 0; j < n; ++j) {
                const Coord &off = bl.slotOffset(bank + j * cfg_.aw);
                if (is_gemm) {
                    const int64_t m = base[Dim::M] + off[Dim::M];
                    const int64_t k = base[Dim::K] + off[Dim::K];
                    if (m >= ext[Dim::M] || k >= ext[Dim::K]) continue;
                    out.at2(m, k) = burst[size_t(j)];
                } else {
                    const int64_t c = base[Dim::C] + off[Dim::C];
                    const int64_t h = base[Dim::H] + off[Dim::H];
                    const int64_t w = base[Dim::W] + off[Dim::W];
                    if (c >= ext[Dim::C] || h >= ext[Dim::H] ||
                        w >= ext[Dim::W]) {
                        continue;
                    }
                    out.at4(0, c, h, w) = burst[size_t(j)];
                }
            }
        }
    }
    return out;
}

} // namespace feather
