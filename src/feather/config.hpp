#pragma once

/**
 * @file
 * Configuration and statistics types for the FEATHER cycle-level simulator.
 */

#include <cstdint>
#include <string>
#include <tuple>

#include "tensor/quant.hpp"

namespace feather {

/** Hardware shape of one FEATHER instance (Fig. 7/8). */
struct FeatherConfig
{
    int aw = 16;             ///< PE columns == BIRRD inputs == StaB banks
    int ah = 16;             ///< PE rows
    int64_t stab_depth = 262144; ///< words per StaB bank (per ping/pong half)
    int max_local = 512;     ///< PE local weight register file capacity
};

/** Quantization parameters of one layer execution. */
struct LayerQuant
{
    int8_t iact_zp = 0;
    int8_t weight_zp = 0;
    int8_t oact_zp = 0;
    /** Combined rescale s_x * s_w / s_out applied by the QM. */
    float multiplier = 1.0f;
};

/** Cycle and access statistics for one layer run. */
struct LayerStats
{
    int64_t cycles = 0;              ///< total latency
    int64_t compute_cycles = 0;      ///< steady-state max(feed, bus, t1)
    int64_t weight_load_cycles = 0;  ///< exposed (non-hidden) preload cycles
    int64_t fill_cycles = 0;         ///< pipeline fill/drain
    int64_t read_stall_cycles = 0;   ///< feed cycles beyond the ideal t1
    int64_t write_stall_cycles = 0;  ///< bus cycles beyond one per row
    int64_t macs = 0;

    // Access counts for the energy model.
    int64_t stab_reads = 0;
    int64_t stab_writes = 0;
    int64_t strb_reads = 0;
    int64_t ob_accumulates = 0;
    int64_t birrd_switch_hops = 0;
    int64_t dram_words = 0;
    int64_t peak_ob_entries = 0;
    int64_t weight_reload_events = 0; ///< shadow-bank tile loads
    int64_t weight_load_cycles_each = 0; ///< AH * t1 per reload
    /** High-water mark of the run's arena-allocated scratch (cycle engine;
     *  0 in analytic mode — not part of the deterministic counter set). */
    int64_t arena_peak_bytes = 0;

    /** Average PE utilization = macs / (cycles * num_pes). */
    double utilization(int num_pes) const
    {
        return cycles > 0 ? double(macs) / (double(cycles) * num_pes) : 0.0;
    }

    std::string toString() const;

    /** Every field, in declaration order (field-for-field comparison). */
    auto
    tie() const
    {
        return std::tie(cycles, compute_cycles, weight_load_cycles,
                        fill_cycles, read_stall_cycles, write_stall_cycles,
                        macs, stab_reads, stab_writes, strb_reads,
                        ob_accumulates, birrd_switch_hops, dram_words,
                        peak_ob_entries, weight_reload_events,
                        weight_load_cycles_each, arena_peak_bytes);
    }
    bool operator==(const LayerStats &o) const { return tie() == o.tie(); }
};

} // namespace feather
