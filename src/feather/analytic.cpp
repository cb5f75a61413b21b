#include "feather/analytic.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "dataflow/mapping.hpp"
#include "feather/accelerator.hpp"
#include "feather/nest_geometry.hpp"
#include "noc/topology.hpp"

namespace feather {

LayerStats
analyticLayerStats(const LayerSpec &layer, const NestMapping &mapping,
                   const Layout &in_layout, const Layout &out_layout,
                   const FeatherConfig &cfg)
{
    checkNestMapping(layer, mapping, cfg);
    const NestGeometry geo(layer, mapping);
    const int64_t t1 = geo.t1;
    const int64_t cols_used = geo.cols_used;
    const int64_t rows_used = geo.rows_used;

    const BoundLayout in_bound(in_layout, iactExtents(layer));
    const int64_t in_wpl = ceilDiv(in_bound.lineSize(), int64_t(cfg.aw));
    const BoundLayout out_bound(out_layout, oactIactExtents(layer));

    // ---- the probe step: the middle of every temporal loop ----
    // Step 0 is unrepresentative under padding (clipped taps); the middle
    // step sees the steady-state access pattern.
    Coord mid;
    for (const LoopLevel &lv : geo.loops.levels()) {
        mid[lv.dim] = (lv.extent - 1) / 2;
    }
    const Coord base = geo.base(mid);

    // Weight tile of the probe step: in-bounds elements per reload.
    int64_t strb_per_reload = 0;
    for (int64_t r = 0; r < rows_used; ++r) {
        for (int64_t c = 0; c < cols_used; ++c) {
            for (int64_t l = 0; l < t1; ++l) {
                Coord wc;
                if (geo.weightAt(base, r, c, l, wc)) ++strb_per_reload;
            }
        }
    }

    // Per-step feed / bus / access probe over addresses only; the waves
    // take their switch-hop counts from the compiled-wave table the cycle
    // tier replays.
    int64_t feed_cycles = 0;
    int64_t bus_cycles = 0;
    int64_t macs_step = 0;
    int64_t stab_reads_step = 0;
    int64_t ob_acc_step = 0;
    int64_t hops_step = 0;
    std::vector<int64_t> dest_keys; // distinct OB destinations this step

    const size_t aw = size_t(cfg.aw);
    const size_t groups = size_t(geo.num_groups);
    std::vector<uint8_t> col_active(aw);
    std::vector<int64_t> group_line(groups), group_bank(groups);
    std::vector<uint8_t> group_live(groups);
    std::vector<int64_t> bank_reads(aw);
    std::vector<int64_t> seen_key;
    std::vector<int> wave_of_group(groups), dense_id(groups);
    std::vector<int> dense_dest(groups);
    std::vector<uint8_t> wave_bank_used(groups * aw);
    std::string wave_key;

    for (int64_t r = 0; r < rows_used; ++r) {
        geo.rowOutputs(base, r, out_bound, cfg.aw, col_active.data(),
                       group_live.data(), group_bank.data(),
                       group_line.data());

        int64_t row_feed = 0;
        for (int64_t l = 0; l < t1; ++l) {
            std::fill(bank_reads.begin(), bank_reads.end(), 0);
            seen_key.clear();
            for (int64_t c = 0; c < cols_used; ++c) {
                Coord ic;
                if (!col_active[size_t(c)] || !geo.iactAt(base, r, c, l, ic)) {
                    continue;
                }
                const LineAddr a = in_bound.addrOf(ic);
                const int64_t bank = a.slot % cfg.aw;
                const int64_t addr = a.line * in_wpl + a.slot / cfg.aw;
                const int64_t key = bank * cfg.stab_depth + addr;
                if (std::find(seen_key.begin(), seen_key.end(), key) ==
                    seen_key.end()) {
                    seen_key.push_back(key);
                    ++stab_reads_step;
                    ++bank_reads[size_t(bank)];
                }
            }
            row_feed += dualPortFeed(bank_reads.data(), cfg.aw);
        }
        if (r < geo.row_variants) feed_cycles += row_feed;

        macs_step += t1 * int64_t(std::count(col_active.begin(),
                                             col_active.end(), uint8_t(1)));

        const int num_waves =
            geo.splitWaves(group_live.data(), group_bank.data(), cfg.aw,
                           wave_bank_used.data(), wave_of_group.data());
        bus_cycles += std::max(num_waves, 1);
        for (size_t g = 0; g < groups; ++g) {
            if (!group_live[g]) continue;
            ++ob_acc_step;
            dest_keys.push_back(group_bank[g] * cfg.stab_depth +
                                group_line[g]);
        }

        for (int w = 0; w < num_waves; ++w) {
            hops_step += geo.waveHops(w, col_active.data(),
                                      wave_of_group.data(), group_bank.data(),
                                      cfg.aw, dense_id.data(),
                                      dense_dest.data(), wave_key);
        }
    }

    // ---- scale the probe to the whole nest ----
    const int64_t total_steps = geo.total_steps;
    const int64_t weight_steps = geo.weight_steps;
    LayerStats stats;
    const int64_t step_cycles = std::max({feed_cycles, bus_cycles, t1});
    stats.compute_cycles = total_steps * step_cycles;
    stats.read_stall_cycles =
        total_steps * std::max<int64_t>(0, feed_cycles - t1);
    stats.write_stall_cycles =
        total_steps * std::max<int64_t>(0, bus_cycles - rows_used);
    stats.macs = total_steps * macs_step;
    stats.stab_reads = total_steps * stab_reads_step;
    stats.ob_accumulates = total_steps * ob_acc_step;
    stats.birrd_switch_hops = total_steps * hops_step;
    stats.strb_reads = weight_steps * strb_per_reload;
    stats.dram_words = stats.strb_reads;
    stats.stab_writes = geo.expected_contribs > 0
                            ? stats.ob_accumulates / geo.expected_contribs
                            : 0;
    std::sort(dest_keys.begin(), dest_keys.end());
    stats.peak_ob_entries = int64_t(
        std::unique(dest_keys.begin(), dest_keys.end()) - dest_keys.begin());
    stats.weight_reload_events = weight_steps;

    // Weight preload exposure: the first AH*t1 load is fully exposed, every
    // later one hides behind the inner_steps of compute since the previous
    // reload (the shadow ping-pong registers).
    const int64_t wl = int64_t(cfg.ah) * t1;
    const int64_t inner_steps = total_steps / weight_steps;
    stats.weight_load_cycles_each = wl;
    stats.weight_load_cycles =
        wl + (weight_steps - 1) *
                 std::max<int64_t>(0, wl - inner_steps * step_cycles);

    stats.fill_cycles = cfg.ah + BirrdTopology(cfg.aw).numStages() + 2;
    stats.cycles = stats.compute_cycles + stats.weight_load_cycles +
                   stats.fill_cycles;
    return stats;
}

} // namespace feather
