#pragma once

/**
 * @file
 * Layoutloop's core evaluation: latency, bank-conflict slowdown, reorder
 * overheads, and energy of one (layer, mapping, layout) triple on one
 * ArchSpec (§V-A/B).
 */

#include <string>

#include "dataflow/access_pattern.hpp"
#include "layoutloop/arch_spec.hpp"
#include "layoutloop/energy_model.hpp"
#include "workload/shapes.hpp"

namespace feather {

/** Outcome of evaluating one (layer, mapping, layout) on one design. */
struct EvalResult
{
    bool valid = false;

    double theoretical_utilization = 0.0; ///< spatial occupancy
    double slowdown = 1.0;                ///< avg bank-conflict factor >= 1
    double practical_utilization = 0.0;   ///< occupancy / slowdown

    int64_t compute_cycles = 0; ///< quantized ideal cycles
    int64_t stall_cycles = 0;   ///< bank-conflict serialization
    int64_t reorder_cycles = 0; ///< exposed reorder latency (off-chip / RAR)
    int64_t total_cycles = 0;

    double energy_pj = 0.0;
    double reorder_energy_pj = 0.0; ///< share of energy_pj due to reordering

    Mapping mapping;
    Layout layout;

    double edp() const { return energy_pj * double(total_cycles); }

    std::string toString() const;
};

/**
 * Evaluate @p mapping under @p layout on @p arch.
 *
 * @param prev_layout layout the layer's iActs were produced in by the
 *        previous layer (used to decide whether a reorder is needed);
 *        nullptr means "first layer / already concordant".
 */
EvalResult evaluateMapping(const ArchSpec &arch, const LayerSpec &layer,
                           const Mapping &mapping, const Layout &layout,
                           const Layout *prev_layout = nullptr,
                           const EnergyTable &energy = EnergyTable{});

} // namespace feather
