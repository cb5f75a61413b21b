#pragma once

/**
 * @file
 * Physical on-chip storage specification and the bank-conflict model.
 *
 * Per the paper (§II-B, Tab. II, §V-A): a *buffer* is a logical 2D array of
 * (num_lines x line_size) words built from SRAM *banks*; each bank holds
 * `lines_per_bank` consecutive lines (Layoutloop's "conflict_depth") and has
 * a fixed number of read/write ports (TSMC 28nm offers at most two). A
 * cycle that touches NL lines within one bank of NP ports incurs a
 * `max(ceil(NL / NP), 1)` slowdown (§V-B).
 */

#include <cstdint>
#include <vector>

#include "common/log.hpp"

namespace feather {

/** Physical organization of one logical buffer. */
struct BufferSpec
{
    int64_t num_lines = 0;      ///< logical rows
    int64_t line_size = 0;      ///< words per row (per-cycle bandwidth)
    int64_t lines_per_bank = 1; ///< conflict depth: rows per physical bank
    int read_ports = 2;         ///< read ports per bank

    /** Bank index holding @p line. */
    int64_t
    bankOf(int64_t line) const
    {
        return line / lines_per_bank;
    }
};

/**
 * Cycles needed to read the given set of distinct lines in one logical
 * access, under per-bank port limits: max over banks of
 * ceil(lines_in_bank / ports), at least 1.
 *
 * @param spec   buffer organization
 * @param lines  distinct line indices touched this cycle (need not be sorted)
 * @param ports  ports per bank (read_ports, or more under a mitigation)
 */
int64_t conflictCycles(const BufferSpec &spec, std::vector<int64_t> lines,
                       int ports);

} // namespace feather
