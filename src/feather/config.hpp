#pragma once

/**
 * @file
 * Configuration and statistics types for the FEATHER cycle-level simulator.
 */

#include <cstdint>
#include <string>

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
    /** StaB words read: per row and local slot, the distinct words its
     *  columns request. Rows the shared top-to-bottom iAct stream serves
     *  (row_variants == 1) count theirs too, so there it is rows_used x
     *  the words the feed pays for. */
    int64_t stab_reads = 0;
    int64_t stab_writes = 0;
    int64_t strb_reads = 0;
    int64_t ob_accumulates = 0;
    int64_t birrd_switch_hops = 0;
    int64_t dram_words = 0;
    int64_t peak_ob_entries = 0;
    int64_t weight_reload_events = 0; ///< shadow-bank tile loads
    int64_t weight_load_cycles_each = 0; ///< AH * t1 per reload
    /** Bytes of the run's hot scratch: the NEST iAct staging [aw x t1]
     *  plus the step scratch's flat buffers (StepScratch::flatBytes).
     *  Deterministic; 0 in analytic mode. Reports take the max over a
     *  job's layers. */
    int64_t arena_peak_bytes = 0;

    /** Average PE utilization = macs / (cycles * num_pes). */
    double utilization(int num_pes) const
    {
        return cycles > 0 ? double(macs) / (double(cycles) * num_pes) : 0.0;
    }

    std::string toString() const;

    /** Field-for-field comparison over kLayerStatsFields. */
    bool operator==(const LayerStats &o) const;
};

/** One LayerStats counter: its name in the counter goldens, and its
 *  member. */
struct LayerStatsField
{
    const char *name;
    int64_t LayerStats::*member;
};

/** Every LayerStats field, in declaration order. operator== and the
 *  tests' counter-golden reader walk it; a new field goes here too. */
inline constexpr LayerStatsField kLayerStatsFields[] = {
    {"cycles", &LayerStats::cycles},
    {"compute_cycles", &LayerStats::compute_cycles},
    {"weight_load_cycles", &LayerStats::weight_load_cycles},
    {"fill_cycles", &LayerStats::fill_cycles},
    {"read_stall_cycles", &LayerStats::read_stall_cycles},
    {"write_stall_cycles", &LayerStats::write_stall_cycles},
    {"macs", &LayerStats::macs},
    {"stab_reads", &LayerStats::stab_reads},
    {"stab_writes", &LayerStats::stab_writes},
    {"strb_reads", &LayerStats::strb_reads},
    {"ob_accumulates", &LayerStats::ob_accumulates},
    {"birrd_switch_hops", &LayerStats::birrd_switch_hops},
    {"dram_words", &LayerStats::dram_words},
    {"peak_ob_entries", &LayerStats::peak_ob_entries},
    {"weight_reload_events", &LayerStats::weight_reload_events},
    {"weight_load_cycles_each", &LayerStats::weight_load_cycles_each},
    {"arena_peak_bytes", &LayerStats::arena_peak_bytes},
};
static_assert(sizeof(LayerStats) ==
                  sizeof(kLayerStatsFields) / sizeof(LayerStatsField) *
                      sizeof(int64_t),
              "kLayerStatsFields must list every LayerStats field");

inline bool
LayerStats::operator==(const LayerStats &o) const
{
    for (const LayerStatsField &f : kLayerStatsFields) {
        if (this->*f.member != o.*f.member) return false;
    }
    return true;
}

} // namespace feather
