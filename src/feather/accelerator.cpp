#include "feather/accelerator.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"

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
    trace_cap_ = max_events;
    trace_.clear();
    trace_.reserve(max_events);
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
    FEATHER_CHECK(bl.numLines() * wpl <= cfg_.stab_depth,
                  "iacts exceed StaB capacity");
    stab_.ping().growBanks(bl.numLines() * wpl);
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
    checkNestMapping(layer, mapping, cfg_);
    if (layer.type != OpType::Gemm) {
        FEATHER_CHECK(layer.conv.n == 1,
                      "the cycle simulator executes batch-1 conv layers");
    }
    const NestGeometry geo(layer, mapping);

    // Output layout bound in next-layer iAct space.
    const BoundLayout out_bound(out_layout, oactIactExtents(layer));
    const int64_t out_wpl = ceilDiv(out_bound.lineSize(), int64_t(cfg_.aw));
    const int64_t out_words = out_bound.numLines() * out_wpl;
    FEATHER_CHECK(out_words <= cfg_.stab_depth, "oacts exceed StaB capacity");
    stab_.pong().growBanks(out_words);

    // Per-run scratch carved out of the bump arena: one reset, flat POD
    // blocks, no allocator traffic inside the step loop.
    arena_.reset();
    const size_t iact_slots = size_t(cfg_.aw) * size_t(geo.t1);
    int16_t *iact_vals = arena_.allocArray<int16_t>(iact_slots);
    std::fill_n(iact_vals, iact_slots, int16_t(0));
    NestGeometry::StepScratch scratch(geo, cfg_.aw, arena_);

    // The data movement NestGeometry::step and weightTile leave to the
    // cycle tier: StaB reads, NEST loads and emission, and the Output
    // Buffer's per-(bank,addr) accumulation with completion countdown. A
    // row that reuses row 0's gather moves no data: its iActs are row
    // 0's, already in iact_vals.
    struct Datapath
    {
        /** One OB word: its partial sum and the contributions it still
         *  awaits (0: free). The QM reads the sum as int32, so a 32-bit
         *  modular accumulator keeps every bit it reads. */
        struct ObEntry
        {
            uint32_t acc = 0;
            int32_t remaining = 0;
        };

        FeatherAccelerator &acc;
        const NestGeometry &geo;
        const Int8Tensor &weights;
        const LayerQuant &quant;
        LayerStats &stats;
        const int64_t t1;
        int16_t *iact_vals;
        int16_t *read_val;
        int64_t step_index = 0;
        /** The OB, flat over the output region: entry bank * out_words +
         *  addr, zeroed, with a count of the live (busy) entries. */
        std::vector<ObEntry> ob;
        int64_t out_words;
        int64_t ob_live = 0;
        // Hoisted heap buffers, reused across rows and steps: the NEST
        // emission (std::optional is not trivial) and the per-group sums.
        std::vector<PortValue> emission;
        std::vector<int64_t> group_sum;

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
        // iact_vals, so only the accounting of its reads remains: the
        // StaB read count and, when tracing, one event per word.
        void
        reuse(const NestGeometry::StepScratch::GatherRead *first, int64_t n)
        {
            acc.stab_.ping().stats().word_reads += n;
            if (acc.trace_.size() >= acc.trace_cap_) return;
            for (int64_t i = 0; i < n; ++i) {
                acc.recordTrace(TraceEvent::Kind::StabRead, step_index,
                                first[i].bank, first[i].addr);
            }
        }

        // BIRRD delivers each group's sum to the group's bank (route()
        // verified that when the wave was compiled), so the sum is taken
        // once here and the waves only count switch hops.
        void
        emit(int64_t r, const uint8_t *col_active)
        {
            acc.nest_.computeRowEmission(int(r), iact_vals, t1,
                                         col_active, emission.data());
            std::fill(group_sum.begin(), group_sum.end(), int64_t(0));
            for (int64_t c = 0; c < geo.cols_used; ++c) {
                if (!col_active[c]) continue;
                group_sum[size_t(geo.cols[size_t(c)].group)] +=
                    *emission[size_t(c)];
            }
        }

        void
        accumulate(int64_t g, int64_t bank, int64_t addr)
        {
            ObEntry &e = ob[size_t(bank * out_words + addr)];
            if (e.remaining == 0) {
                e.remaining = int32_t(geo.expected_contribs);
                stats.peak_ob_entries =
                    std::max(stats.peak_ob_entries, ++ob_live);
            }
            e.acc += uint32_t(group_sum[size_t(g)]);
            if (--e.remaining == 0) {
                const int8_t q = requantize(int32_t(e.acc), quant.multiplier,
                                            quant.oact_zp);
                acc.stab_.pong().write(bank, addr, q);
                ++stats.stab_writes;
                acc.recordTrace(TraceEvent::Kind::StabWrite, step_index,
                                bank, addr);
                e.acc = 0;
                --ob_live;
            }
        }
    };
    // The OB spans the layer's output region, not the StaB depth, and
    // lives on the heap, not in the arena, whose peak is a reported
    // counter.
    FEATHER_CHECK(geo.expected_contribs <= INT32_MAX,
                  "an OB word cannot count ", geo.expected_contribs,
                  " partial sums");
    LayerStats stats;
    Datapath dp{*this, geo, weights, quant, stats, geo.t1, iact_vals,
                scratch.read_val, 0,
                std::vector<Datapath::ObEntry>(size_t(cfg_.aw * out_words)),
                out_words, 0, std::vector<PortValue>(size_t(cfg_.aw)),
                std::vector<int64_t>(size_t(geo.num_groups))};

    // Weight dims are a prefix of the temporal order, so the weight tile
    // changes exactly every inner_steps steps; each load goes into the
    // shadow ping-pong registers behind the compute since the last one.
    const int64_t inner_steps = geo.total_steps / geo.weight_steps;
    int64_t compute_since_load = 0;

    Coord step;
    do {
        const Coord base = geo.base(step);
        if (dp.step_index % inner_steps == 0) {
            geo.weightTile(base, dp, stats);
            stats.weight_load_cycles +=
                geo.exposedLoad(cfg_, compute_since_load);
            nest_.swapWeightBanks();
            compute_since_load = 0;
        }
        compute_since_load +=
            geo.step(base, current_layout_, out_bound, cfg_, scratch, dp,
                     stats);
        ++dp.step_index;
    } while (geo.loops.advance(step));

    FEATHER_CHECK(dp.ob_live == 0, "OB has ", dp.ob_live,
                  " incomplete accumulations at layer end");

    stats.arena_peak_bytes = int64_t(arena_.peakBytes());
    geo.finish(stats, cfg_);

    // The written pong becomes the next layer's ping (inter-layer
    // pipelining via the ping-pong StaB).
    stab_.swap();
    current_layout_ = out_bound;

    return stats;
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
            stab_.ping().peekRange(bank, line * wpl, burst.data(), n);
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
