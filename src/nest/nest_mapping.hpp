#pragma once

/**
 * @file
 * NEST work assignment: how one layer's loop nest is spread over the
 * AW x AH PE array (paper §III-A, Fig. 9).
 *
 * - `cols`: dims unrolled across the AW columns. Reduction dims (C/R/S/K)
 *   among them define the BIRRD spatial reduction groups: columns that share
 *   all non-reduction col indices reduce into one output.
 * - `rows`: dims unrolled across the AH rows. Rows time-multiplex the
 *   column buses (one row emission per cycle). Reduction dims among them
 *   accumulate temporally in the Output Buffer.
 * - `local`: dims reduced *inside* each PE's Phase-1 local temporal
 *   reduction (the local register file holds one weight per local step;
 *   T1 = product of local extents).
 * - remaining extents are iterated by the controller's temporal loops, with
 *   reduction loops innermost so Output Buffer entries complete before any
 *   non-reduction coordinate advances.
 */

#include <string>
#include <vector>

#include "dataflow/mapping.hpp"
#include "workload/shapes.hpp"

namespace feather {

/** Full NEST mapping for one layer. */
struct NestMapping
{
    std::vector<ParallelDim> cols;
    std::vector<ParallelDim> rows;
    std::vector<ParallelDim> local;

    /** Phase-1 local reduction length (product of local extents). */
    int64_t t1() const { return totalDegree(local); }

    /** Column count used (product of col degrees). */
    int64_t colsUsed() const { return totalDegree(cols); }

    /** Row count used (product of row degrees). */
    int64_t rowsUsed() const { return totalDegree(rows); }

    /** All spatial dims (cols then rows), for utilization math. */
    std::vector<ParallelDim> spatial() const;

    std::string toString() const;

    /**
     * Check structural validity for an AW x AH array running @p layer:
     * degrees fit the array, every dim appears at most once, depthwise
     * layers do not parallelize M, GEMM layers use only M/N/K.
     * @return empty string if valid, else a description of the violation.
     */
    std::string validate(const LayerSpec &layer, int aw, int ah) const;

    /**
     * The canonical weight-stationary mapping of the Fig. 9 walkthrough,
     * adapted to the layer: local = {R,S} (conv) or a K-tile (GEMM),
     * cols = reduction x output dims filling AW, rows = output dims
     * filling AH.
     */
    static NestMapping canonical(const LayerSpec &layer, int aw, int ah);
};

} // namespace feather
