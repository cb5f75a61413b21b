#include "feather/analytic.hpp"

#include <algorithm>
#include <vector>

#include "dataflow/mapping.hpp"
#include "feather/accelerator.hpp"
#include "feather/nest_geometry.hpp"

namespace feather {

LayerStats
analyticLayerStats(const LayerSpec &layer, const NestMapping &mapping,
                   const Layout &in_layout, const Layout &out_layout,
                   const FeatherConfig &cfg)
{
    checkNestMapping(layer, mapping, cfg);
    const NestGeometry geo(layer, mapping);
    const BoundLayout in_bound(in_layout, iactExtents(layer));
    const BoundLayout out_bound(out_layout, oactIactExtents(layer));

    // The probe step: the middle of every temporal loop. Step 0 is
    // unrepresentative under padding (clipped taps); the middle step sees
    // the steady-state access pattern.
    Coord mid;
    for (const LoopLevel &lv : geo.loops.levels()) {
        mid[lv.dim] = (lv.extent - 1) / 2;
    }
    const Coord base = geo.base(mid);

    // Nothing moves; the sink only collects the step's OB destinations.
    struct ObDestinations
    {
        int64_t depth;
        std::vector<int64_t> keys;

        void weight(int64_t, int64_t, int64_t, const Coord *) {}
        void read(int64_t, int64_t, int64_t) {}
        void iact(int64_t, int64_t, int64_t) {}
        void reuse(const NestGeometry::StepScratch::GatherRead *, int64_t) {}
        void emit(int64_t, const uint8_t *) {}
        void
        accumulate(int64_t, int64_t bank, int64_t line)
        {
            keys.push_back(bank * depth + line);
        }
    } dests{cfg.stab_depth, {}};
    thread_local Arena arena; // blocks reused across calls
    arena.reset();
    NestGeometry::StepScratch scratch(geo, cfg.aw, arena);
    LayerStats stats;
    const int64_t step_cycles =
        geo.step(base, in_bound, out_bound, cfg, scratch, dests, stats,
                 geo.total_steps);
    stats.stab_writes = geo.expected_contribs > 0
                            ? stats.ob_accumulates / geo.expected_contribs
                            : 0;
    std::sort(dests.keys.begin(), dests.keys.end());
    stats.peak_ob_entries =
        int64_t(std::unique(dests.keys.begin(), dests.keys.end()) -
                dests.keys.begin());

    // Weight tiles: the first preload is fully exposed, every later one
    // hides behind the inner_steps of compute since the previous reload.
    geo.weightTile(base, dests, stats, geo.weight_steps);
    const int64_t inner_steps = geo.total_steps / geo.weight_steps;
    const int64_t later = geo.exposedLoad(cfg, inner_steps * step_cycles);
    stats.weight_load_cycles =
        geo.exposedLoad(cfg, 0) + (geo.weight_steps - 1) * later;
    geo.finish(stats, cfg);
    return stats;
}

} // namespace feather
