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
 *
 * Storage is one dense [bank][row][col][t1] tile of int16 weights, sized
 * by each run's local depth t1 (setLocal), not by the register file's
 * capacity: a PE's t1 weights are contiguous, so its Phase-1 reduction is
 * one dot product over two unit-stride streams (dot). The dot accumulates
 * in int32 and is exact: weights and iActs are int8 values minus an int8
 * zero point, so each operand lies in [-255, 255] and |sum| <= t1 * 255^2,
 * which setLocal checks is below 2^31 once per run.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace feather {

/** The 2D PE array with ping-pong weight register files. */
class NestArray
{
  public:
    /** Largest operand magnitude: an int8 value minus an int8 zero point. */
    static constexpr int64_t kMaxOperand = 255;

    /**
     * @param aw  columns (must match the BIRRD input count)
     * @param ah  rows
     * @param max_local capacity of each PE's local weight register file
     */
    NestArray(int aw, int ah, int max_local = 512);

    /**
     * Start a run whose PEs each hold @p t1 weights: size both banks of
     * the tile to [ah][aw][t1], zeroed. Panics when t1 exceeds the
     * register file or t1 * kMaxOperand^2 does not fit an int32.
     */
    void setLocal(int64_t t1);

    /**
     * Write one weight into the *shadow* register bank of PE (row, col).
     * Weights are stored post-zero-point-subtraction (9-bit range), as the
     * datapath multiplies 9b x 9b (Fig. 8).
     */
    void loadWeight(int row, int col, int local_step, int16_t weight);

    /** Swap ping/pong register banks (new tile becomes active). */
    void swapWeightBanks();

    /**
     * Phase 1 of PE (row, col): its active weights dotted with @p iacts,
     * the column's t1-long stream (zero-point-subtracted, inactive taps
     * 0). Exact in int32 (see the file comment).
     */
    int32_t
    dot(int row, int col, const int16_t *iacts) const
    {
        const int16_t *w = regs_.data() + tileIndex(active_bank_, row, col);
        int32_t acc = 0;
        for (int64_t l = 0; l < t1_; ++l) {
            acc += int32_t(iacts[l]) * int32_t(w[l]);
        }
        return acc;
    }

  private:
    size_t
    tileIndex(int bank, int row, int col) const
    {
        return ((size_t(bank) * size_t(ah_) + size_t(row)) * size_t(aw_) +
                size_t(col)) * size_t(t1_);
    }

    int aw_;
    int ah_;
    int max_local_;
    int64_t t1_ = 0;
    int active_bank_ = 0;
    std::vector<int16_t> regs_; ///< [2][ah][aw][t1]
};

} // namespace feather
