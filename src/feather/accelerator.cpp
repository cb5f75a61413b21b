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
    : cfg_(cfg), nest_(cfg.aw, cfg.ah, cfg.max_local), birrd_(cfg.aw),
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

    const int64_t wpl = ceilDiv(current_layout_.lineSize(), int64_t(cfg_.aw));
    FEATHER_CHECK(current_layout_.numLines() * wpl <= cfg_.stab_depth,
                  "iacts exceed StaB capacity");
    // A bank's slots within one line (slot = bank + j*AW) land at contiguous
    // addresses line*wpl + j, so each (line, bank) run becomes one bulk
    // write — the DMA burst the host interface would issue.
    std::vector<int8_t> burst(static_cast<size_t>(wpl));
    for (int64_t line = 0; line < current_layout_.numLines(); ++line) {
        for (int64_t bank = 0;
             bank < std::min<int64_t>(cfg_.aw, current_layout_.lineSize());
             ++bank) {
            int64_t n = 0;
            for (int64_t slot = bank; slot < current_layout_.lineSize();
                 slot += cfg_.aw) {
                const Coord c = current_layout_.coordAt({line, slot});
                int8_t v = 0;
                if (is_gemm) {
                    if (c[Dim::M] < ext[Dim::M] && c[Dim::K] < ext[Dim::K]) {
                        v = iacts.at2(c[Dim::M], c[Dim::K]);
                    }
                } else {
                    if (c[Dim::C] < ext[Dim::C] && c[Dim::H] < ext[Dim::H] &&
                        c[Dim::W] < ext[Dim::W]) {
                        v = iacts.at4(0, c[Dim::C], c[Dim::H], c[Dim::W]);
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
    const int64_t t1 = geo.t1;
    const int64_t cols_used = geo.cols_used;
    const int64_t rows_used = geo.rows_used;
    const int64_t num_groups = geo.num_groups;

    // Output layout bound in next-layer iAct space.
    const BoundLayout out_bound(out_layout, oactIactExtents(layer));
    const int64_t out_wpl = ceilDiv(out_bound.lineSize(), int64_t(cfg_.aw));
    FEATHER_CHECK(out_bound.numLines() * out_wpl <= cfg_.stab_depth,
                  "oacts exceed StaB capacity");
    const int64_t in_wpl =
        ceilDiv(current_layout_.lineSize(), int64_t(cfg_.aw));

    // Output Buffer: per-(bank,addr) accumulator with completion countdown.
    struct ObEntry
    {
        int64_t acc = 0;
        int64_t remaining = 0;
    };
    std::unordered_map<int64_t, ObEntry> ob;
    auto ob_key = [&](int64_t bank, int64_t addr) {
        return bank * cfg_.stab_depth + addr;
    };

    LayerStats stats;
    const int64_t weight_load_cycles = int64_t(cfg_.ah) * t1;
    int64_t compute_since_load = 0;
    // Weight dims are a prefix of the temporal order, so the weight tile
    // changes exactly every inner_steps steps.
    const int64_t inner_steps = geo.total_steps / geo.weight_steps;

    // Per-run scratch carved out of the bump arena: one reset, flat POD
    // blocks, no allocator traffic inside the step loop.
    arena_.reset();
    int16_t *iact_vals =
        arena_.allocArray<int16_t>(size_t(cfg_.aw) * size_t(t1));
    std::fill_n(iact_vals, size_t(cfg_.aw) * size_t(t1), int16_t(0));
    uint8_t *col_active = arena_.allocArray<uint8_t>(size_t(cfg_.aw));
    int64_t *group_line = arena_.allocArray<int64_t>(size_t(num_groups));
    int64_t *group_bank = arena_.allocArray<int64_t>(size_t(num_groups));
    uint8_t *group_live = arena_.allocArray<uint8_t>(size_t(num_groups));
    int64_t *bank_reads = arena_.allocArray<int64_t>(size_t(cfg_.aw));
    int64_t *seen_key = arena_.allocArray<int64_t>(size_t(cols_used));
    int16_t *seen_val = arena_.allocArray<int16_t>(size_t(cols_used));
    int *wave_of_group = arena_.allocArray<int>(size_t(num_groups));
    // Greedy wave split never opens more waves than live groups, so a
    // num_groups x AW occupancy table bounds it.
    uint8_t *wave_bank_used =
        arena_.allocArray<uint8_t>(size_t(num_groups) * size_t(cfg_.aw));
    int *dense_id = arena_.allocArray<int>(size_t(num_groups));
    int *dense_dest = arena_.allocArray<int>(size_t(num_groups));

    // Hoisted heap buffers, reused across rows and steps: the NEST
    // emission (std::optional is not trivial), the per-group sums and the
    // compiled-wave key.
    std::vector<PortValue> emission(size_t(cfg_.aw));
    std::vector<int64_t> group_sum(static_cast<size_t>(num_groups));
    std::string wave_key;

    Coord step;
    int64_t step_index = 0;
    bool more = true;
    while (more) {
        const Coord base = geo.base(step);

        // ---- weight tile management (ping-pong shadow load) ----
        if (step_index % inner_steps == 0) {
            for (int64_t r = 0; r < rows_used; ++r) {
                for (int64_t c = 0; c < cols_used; ++c) {
                    for (int64_t l = 0; l < t1; ++l) {
                        Coord wc;
                        int16_t w = 0;
                        if (geo.weightAt(base, r, c, l, wc)) {
                            const int8_t raw =
                                geo.is_gemm
                                    ? weights.at2(wc[Dim::K], wc[Dim::N])
                                : geo.depthwise
                                    ? weights.at4(wc[Dim::C], 0, wc[Dim::R],
                                                  wc[Dim::S])
                                    : weights.at4(wc[Dim::M], wc[Dim::C],
                                                  wc[Dim::R], wc[Dim::S]);
                            w = int16_t(int16_t(raw) - quant.weight_zp);
                            ++stats.strb_reads;
                            ++stats.dram_words;
                        }
                        nest_.loadWeight(int(r), int(c), int(l), w);
                    }
                }
            }
            nest_.swapWeightBanks();
            ++stats.weight_reload_events;
            const int64_t exposed =
                step_index == 0 ? weight_load_cycles
                                : std::max<int64_t>(0, weight_load_cycles -
                                                           compute_since_load);
            stats.weight_load_cycles += exposed;
            compute_since_load = 0;
        }

        // ---- per-step feed / bus / compute accounting + datapath ----
        int64_t feed_cycles = 0;
        int64_t bus_cycles = 0;

        for (int64_t r = 0; r < rows_used; ++r) {
            geo.rowOutputs(base, r, out_bound, cfg_.aw, col_active,
                           group_live, group_bank, group_line);

            // ---- gather iacts for the active columns of this row ----
            // Columns requesting the same word in the same cycle share one
            // bank access (the point-to-point distribution broadcasts it).
            int64_t row_feed = 0;
            for (int64_t l = 0; l < t1; ++l) {
                std::fill_n(bank_reads, size_t(cfg_.aw), int64_t(0));
                int64_t num_seen = 0;
                for (int64_t c = 0; c < cols_used; ++c) {
                    if (!col_active[size_t(c)]) continue;
                    int16_t v = 0;
                    Coord ic;
                    if (geo.iactAt(base, r, c, l, ic)) {
                        const LineAddr a = current_layout_.addrOf(ic);
                        const int64_t bank = a.slot % cfg_.aw;
                        const int64_t addr =
                            a.line * in_wpl + a.slot / cfg_.aw;
                        const int64_t key = bank * cfg_.stab_depth + addr;
                        bool shared = false;
                        for (int64_t s = 0; s < num_seen; ++s) {
                            if (seen_key[s] == key) {
                                v = seen_val[s];
                                shared = true;
                                break;
                            }
                        }
                        if (!shared) {
                            v = int16_t(
                                int16_t(stab_.ping().read(bank, addr)) -
                                quant.iact_zp);
                            seen_key[num_seen] = key;
                            seen_val[num_seen] = v;
                            ++num_seen;
                            ++stats.stab_reads;
                            ++bank_reads[size_t(bank)];
                            recordTrace(TraceEvent::Kind::StabRead,
                                        step_index, bank, addr);
                        }
                    }
                    iact_vals[size_t(c) * size_t(t1) + size_t(l)] = v;
                }
                row_feed += dualPortFeed(bank_reads, cfg_.aw);
            }
            if (r < geo.row_variants) feed_cycles += row_feed;

            // ---- NEST emission, reduced per group ----
            // BIRRD delivers each group's sum to the group's bank (route()
            // verified that when the wave was compiled), so the sum is
            // taken once here and the waves only count switch hops.
            nest_.computeRowEmission(int(r), iact_vals, t1, col_active,
                                     emission.data());
            std::fill(group_sum.begin(), group_sum.end(), int64_t(0));
            int64_t active_cols = 0;
            for (int64_t c = 0; c < cols_used; ++c) {
                if (!col_active[size_t(c)]) continue;
                ++active_cols;
                group_sum[size_t(geo.cols[size_t(c)].group)] +=
                    *emission[size_t(c)];
            }
            stats.macs += t1 * active_cols;

            // ---- wave-split groups so each StaB bank is hit once ----
            const int num_waves = geo.splitWaves(
                group_live, group_bank, cfg_.aw, wave_bank_used,
                wave_of_group);
            bus_cycles += std::max(num_waves, 1);

            // ---- BIRRD reduction + reordering per wave ----
            for (int w = 0; w < num_waves; ++w) {
                stats.birrd_switch_hops +=
                    geo.waveHops(w, col_active, wave_of_group, group_bank,
                                 cfg_.aw, dense_id, dense_dest, wave_key);

                // ---- OB accumulation and completion ----
                for (int64_t g = 0; g < num_groups; ++g) {
                    if (!group_live[size_t(g)] ||
                        wave_of_group[size_t(g)] != w) {
                        continue;
                    }
                    const int64_t bank = group_bank[size_t(g)];
                    const int64_t addr = group_line[size_t(g)];
                    auto [it, inserted] =
                        ob.try_emplace(ob_key(bank, addr));
                    if (inserted) {
                        it->second.remaining = geo.expected_contribs;
                        stats.peak_ob_entries = std::max(
                            stats.peak_ob_entries, int64_t(ob.size()));
                    }
                    it->second.acc += group_sum[size_t(g)];
                    ++stats.ob_accumulates;
                    if (--it->second.remaining == 0) {
                        const int8_t q = requantize(int32_t(it->second.acc),
                                                    quant.multiplier,
                                                    quant.oact_zp);
                        stab_.pong().write(bank, addr, q);
                        ++stats.stab_writes;
                        recordTrace(TraceEvent::Kind::StabWrite, step_index,
                                    bank, addr);
                        ob.erase(it);
                    }
                }
            }
        }

        // Steady-state cycles for this step.
        const int64_t step_cycles =
            std::max({feed_cycles, bus_cycles, t1});
        stats.compute_cycles += step_cycles;
        stats.read_stall_cycles += std::max<int64_t>(0, feed_cycles - t1);
        stats.write_stall_cycles +=
            std::max<int64_t>(0, bus_cycles - rows_used);
        compute_since_load += step_cycles;

        ++step_index;
        more = geo.loops.advance(step);
    }

    FEATHER_CHECK(ob.empty(), "OB has ", ob.size(),
                  " incomplete accumulations at layer end");

    // Pipeline fill: row stagger + BIRRD pipeline + OB/QM stages.
    stats.weight_load_cycles_each = weight_load_cycles;
    stats.arena_peak_bytes = int64_t(arena_.peakBytes());
    stats.fill_cycles = cfg_.ah + birrd_.latency() + 2;
    stats.cycles = stats.compute_cycles + stats.weight_load_cycles +
                   stats.fill_cycles;

    // The written pong becomes the next layer's ping (inter-layer
    // pipelining via the ping-pong StaB).
    stab_.swap();
    current_layout_ = out_bound;

    return stats;
}

Int8Tensor
FeatherAccelerator::readActivations() const
{
    const Extents &ext = current_layout_.extents();
    const int64_t wpl = ceilDiv(current_layout_.lineSize(), int64_t(cfg_.aw));
    const bool is_gemm = ext[Dim::K] > 0;

    Int8Tensor out =
        is_gemm ? Int8Tensor({ext[Dim::M], ext[Dim::K]})
                : Int8Tensor({1, ext[Dim::C], ext[Dim::H], ext[Dim::W]});
    // Mirror of loadIacts: one bulk peek per (line, bank) run, then scatter
    // into the tensor.
    std::vector<int8_t> burst(static_cast<size_t>(wpl));
    for (int64_t line = 0; line < current_layout_.numLines(); ++line) {
        for (int64_t bank = 0;
             bank < std::min<int64_t>(cfg_.aw, current_layout_.lineSize());
             ++bank) {
            const int64_t n =
                ceilDiv(current_layout_.lineSize() - bank, int64_t(cfg_.aw));
            stab_.ping().peekRange(bank, line * wpl, burst.data(), n);
            for (int64_t j = 0; j < n; ++j) {
                const int64_t slot = bank + j * cfg_.aw;
                const Coord c = current_layout_.coordAt({line, slot});
                if (is_gemm) {
                    if (c[Dim::M] >= ext[Dim::M] ||
                        c[Dim::K] >= ext[Dim::K]) {
                        continue;
                    }
                    out.at2(c[Dim::M], c[Dim::K]) = burst[size_t(j)];
                } else {
                    if (c[Dim::C] >= ext[Dim::C] ||
                        c[Dim::H] >= ext[Dim::H] ||
                        c[Dim::W] >= ext[Dim::W]) {
                        continue;
                    }
                    out.at4(0, c[Dim::C], c[Dim::H], c[Dim::W]) =
                        burst[size_t(j)];
                }
            }
        }
    }
    return out;
}

} // namespace feather
