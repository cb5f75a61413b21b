#pragma once

/**
 * @file
 * Per-cycle access-set generation: which iAct elements a mapping reads
 * concurrently, and which buffer lines those land on under a given
 * layout. This is the machinery behind the paper's bank-conflict assessment
 * (§V-B) and the M1–M8 walkthrough tables of Fig. 4.
 */

#include <vector>

#include "dataflow/mapping.hpp"
#include "layout/layout.hpp"
#include "workload/shapes.hpp"

namespace feather {

/** One temporal loop level (for odometer iteration). */
struct LoopLevel
{
    Dim dim;
    int64_t extent;
};

/** Odometer over a list of loop levels, outermost first. */
class LoopNest
{
  public:
    explicit LoopNest(std::vector<LoopLevel> levels);

    int64_t totalIters() const { return total_; }

    /**
     * Advance the coordinate through the nest (innermost fastest).
     * @return false when the iteration space is exhausted.
     */
    bool advance(Coord &c) const;

    const std::vector<LoopLevel> &levels() const { return levels_; }

  private:
    std::vector<LoopLevel> levels_;
    int64_t total_ = 1;
};

/**
 * iAct coordinates read concurrently in one spatial step.
 *
 * @param layer   the layer being executed
 * @param spatial spatially-unrolled dims with degrees
 * @param base    temporal base coordinate (offsets in every dim)
 *
 * Output coordinates are deduplicated; padded (out-of-tensor) positions are
 * dropped. For conv layers the returned coords are in iAct space (C,H,W
 * with H = P*stride + R - pad); for GEMM in (M,K).
 */
std::vector<Coord> concurrentIactCoords(const LayerSpec &layer,
                                        const std::vector<ParallelDim> &spatial,
                                        const Coord &base);

/** Distinct buffer lines touched by @p coords under layout @p bl. */
std::vector<int64_t> linesTouched(const BoundLayout &bl,
                                  const std::vector<Coord> &coords);

/**
 * Sample temporal base coordinates for slowdown estimation: steps the
 * temporal loops of @p mapping through up to @p max_samples early
 * iterations (the access pattern is periodic, so early cycles are
 * representative — matching Layoutloop's per-cycle analysis).
 */
std::vector<Coord> sampleTemporalBases(const LayerSpec &layer,
                                       const Mapping &mapping,
                                       int max_samples);

} // namespace feather
