#pragma once

/**
 * @file
 * NEST: FEATHER's neural engine with Spatial forwarding and Temporal
 * reduction (paper §III-A, Fig. 8/9).
 *
 * The array is AW columns x AH rows of PEs. Each PE holds a slice of
 * weights in a ping-pong local register file (so the next tile's weights
 * load while the current tile computes; NestGeometry::exposedLoad charges
 * the part of the preload the compute does not hide) and accumulates
 * Phase-1 local temporal reductions. In Phase 2, one row per cycle drives
 * the column-wise output buses, sending AW locally-reduced partial sums
 * into BIRRD while the other rows keep computing.
 *
 * This class models the *functional* datapath (exact int arithmetic per
 * emission). Cycle accounting lives in the FEATHER controller, which knows
 * the mapping, the buffers, and the stall sources.
 */

#include <cstdint>
#include <vector>

#include "noc/birrd.hpp" // PortValue

namespace feather {

/** The 2D PE array with ping-pong weight register files. */
class NestArray
{
  public:
    /**
     * @param aw  columns (must match the BIRRD input count)
     * @param ah  rows
     * @param max_local capacity of each PE's local weight register file
     */
    NestArray(int aw, int ah, int max_local = 512);

    int aw() const { return aw_; }
    int ah() const { return ah_; }

    /**
     * Write one weight into the *shadow* register bank of PE (row, col).
     * Weights are stored post-zero-point-subtraction (9-bit range), as the
     * datapath multiplies 9b x 9b (Fig. 8).
     */
    void loadWeight(int row, int col, int local_step, int16_t weight);

    /** Swap ping/pong register banks (new tile becomes active). */
    void swapWeightBanks();

    /**
     * Phase 1 + one Phase-2 emission for @p row: @p iacts is an AW x @p t1
     * row-major block (column c's stream at iacts[c * t1], zero-point
     * -subtracted, inactive taps 0), @p active is AW bytes, and the AW
     * partial sums are written into @p emission (inactive columns get
     * std::nullopt, leaving the column bus silent).
     */
    void computeRowEmission(int row, const int16_t *iacts, int64_t t1,
                            const uint8_t *active, PortValue *emission);

  private:
    size_t
    regIndex(int bank, int row, int col, int local_step) const
    {
        return ((size_t(bank) * size_t(ah_) + size_t(row)) * size_t(aw_) +
                size_t(col)) * size_t(max_local_) + size_t(local_step);
    }

    int aw_;
    int ah_;
    int max_local_;
    int active_bank_ = 0;
    std::vector<int16_t> regs_; ///< [2][ah][aw][max_local]
};

} // namespace feather
