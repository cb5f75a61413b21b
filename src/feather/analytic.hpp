#pragma once

/**
 * @file
 * Analytic (closed-form) FEATHER performance model — the fast tier of the
 * two-tier simulation engine (sim/engine_mode.hpp; sim::runChain calls it
 * in place of the cycle replay).
 *
 * The model runs the cycle tier's own step body, NestGeometry::step
 * (feather/nest_geometry.hpp), once: on the middle step of the nest,
 * which is representative of the steady state (step 0 is not: padded
 * convolutions clip many taps there). Its sink moves no data; it only
 * collects the step's OB destinations (peak_ob_entries). The step's
 * scratch, its one output plan included, is kept per thread, so a warm
 * call allocates no heap memory for it and interns nothing; it reports
 * arena_peak_bytes as 0, since it stages no data. What the model
 * adds is the scaling: step counters times the temporal step count, one
 * weight-tile walk times the reload count, with later reloads hidden
 * behind the evenly spaced compute between them (weight dims are a prefix
 * of the temporal order).
 *
 * Accuracy: exact whenever the probe step is representative (uniform
 * steady state, and always on a one-step nest); boundary steps with
 * clipped columns make the model over-estimate feed/macs slightly. Across
 * the registered scenarios the cycle estimate stays within the bound
 * documented in README.md ("Simulation engines"), and candidate rankings
 * match the cycle simulator's. `checked`/verification does not apply —
 * there is no data to verify.
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
