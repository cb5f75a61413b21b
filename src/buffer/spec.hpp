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

    /** Number of physical banks (vertical stacking). */
    int64_t
    numBanks() const
    {
        return (num_lines + lines_per_bank - 1) / lines_per_bank;
    }

    int64_t capacityWords() const { return num_lines * line_size; }
};

/**
 * Cycles needed to read the given set of distinct lines in one logical
 * access, under per-bank port limits: max over banks of
 * ceil(lines_in_bank / ports), at least 1.
 *
 * @param spec   buffer organization
 * @param lines  distinct line indices touched this cycle (need not be sorted)
 * @param ports  port count to use (read or write ports)
 */
int64_t conflictCycles(const BufferSpec &spec, std::vector<int64_t> lines,
                       int ports);

/** conflictCycles at the buffer's read port count. */
int64_t readConflictCycles(const BufferSpec &spec,
                           std::vector<int64_t> lines);

/** Running access statistics for one buffer. */
struct AccessStats
{
    int64_t word_reads = 0;
    int64_t word_writes = 0;
    int64_t line_reads = 0;      ///< distinct (cycle, line) read activations
    int64_t line_writes = 0;
    int64_t conflict_stall_cycles = 0;

    void
    merge(const AccessStats &o)
    {
        word_reads += o.word_reads;
        word_writes += o.word_writes;
        line_reads += o.line_reads;
        line_writes += o.line_writes;
        conflict_stall_cycles += o.conflict_stall_cycles;
    }
};

} // namespace feather
