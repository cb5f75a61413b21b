#pragma once

/**
 * @file
 * Analytic (closed-form) FEATHER performance model — the fast tier of the
 * two-tier simulation engine (sim/engine_mode.hpp; sim::runChain calls it
 * in place of the cycle replay).
 *
 * Both tiers read the layer's loop-nest geometry from one
 * feather::NestGeometry (feather/nest_geometry.hpp). The cycle simulator
 * walks every temporal step of it and replays every partial sum through
 * NEST -> BIRRD -> OB. The analytic model instead derives the same
 * LayerStats fields from the geometry alone:
 *
 *   - the step count, weight-reload count and reload spacing are the
 *     geometry's temporal trip counts (weight dims are a prefix of the
 *     temporal order, so reloads are evenly spaced);
 *   - feed/bus/macs per step come from ONE probe step of pure address
 *     arithmetic — the middle step of the nest, which is representative of
 *     the steady state (step 0 is not: padded convolutions clip many taps
 *     there). The probe uses the geometry's coordinates, output pass,
 *     dual-port feed and wave split, and takes each wave's switch hops
 *     from the compiled-wave table the cycle tier replays, but touches no
 *     data;
 *   - totals are the per-step probe values scaled by the step count, plus
 *     the exact weight-preload exposure and pipeline-fill terms.
 *
 * Accuracy: cycles are exact whenever the probe step is representative
 * (uniform steady state); boundary steps with clipped columns make the
 * model over-estimate feed/macs slightly. Across the registered scenarios
 * the cycle estimate stays within the bound documented in README.md
 * ("Simulation engines"), and candidate rankings match the cycle
 * simulator's. Access counters (stab_reads, ob_accumulates, ...) are
 * scaled estimates under the same caveat; `checked`/verification does not
 * apply — there is no data to verify.
 */

#include "feather/config.hpp"
#include "layout/layout.hpp"
#include "nest/nest_mapping.hpp"
#include "workload/shapes.hpp"

namespace feather {

/**
 * Closed-form LayerStats estimate for running @p layer under @p mapping
 * with iActs stored as @p in_layout and oActs written as @p out_layout
 * (bound in next-layer iAct space, oactIactExtents).
 *
 * Checks the mapping with checkNestMapping, as FeatherAccelerator::run
 * does.
 */
LayerStats analyticLayerStats(const LayerSpec &layer,
                              const NestMapping &mapping,
                              const Layout &in_layout,
                              const Layout &out_layout,
                              const FeatherConfig &cfg);

} // namespace feather
