#pragma once

/**
 * @file
 * Dataflow (mapping) representation with the paper's four degrees of
 * freedom — (T)iling, (O)rdering, (P)arallelism, (S)hape (§II-A).
 *
 * A Mapping describes how one layer runs on a PE array:
 *  - `spatial` lists the parallelized dimensions and their degrees; their
 *    product must not exceed the PE count. The split into `num_cols` /
 *    `num_rows` groups captures the (S)hape: which dims live on the column
 *    axis (and therefore feed the reduction network concurrently) versus
 *    the row axis (time-multiplexed onto the reduction network).
 *  - `temporal_order` is the loop order of the remaining (tiled) iteration,
 *    outermost first ((O)rdering).
 *  - `tile` gives level-1 tile sizes per dim; 0 means "full extent"
 *    ((T)iling).
 */

#include <string>
#include <vector>

#include "layout/coords.hpp"
#include "workload/dims.hpp"
#include "workload/shapes.hpp"

namespace feather {

/** One spatially-unrolled dimension. */
struct ParallelDim
{
    Dim dim;
    int64_t degree;

    bool
    operator==(const ParallelDim &o) const
    {
        return dim == o.dim && degree == o.degree;
    }
};

/** Product of parallel degrees. */
int64_t totalDegree(const std::vector<ParallelDim> &dims);

/**
 * Average spatial occupancy of the parallel dims on a workload: each dim of
 * extent E unrolled by degree p contributes E / (p * ceil(E/p)) — the
 * quantization loss when E does not divide evenly.
 */
double spatialOccupancy(const std::vector<ParallelDim> &dims,
                        const Extents &extents);

/** A full dataflow mapping. */
struct Mapping
{
    std::vector<ParallelDim> cols; ///< dims unrolled across array columns
    std::vector<ParallelDim> rows; ///< dims unrolled across array rows
    std::vector<Dim> temporal_order; ///< outer -> inner
    DimMap tile;                     ///< level-1 tile size; 0 = full extent

    /** All spatial dims (cols then rows). */
    std::vector<ParallelDim> spatial() const;

    std::string toString() const;
};

/** Extents of a conv layer as a DimMap (P/Q included). */
Extents convExtents(const ConvShape &shape);

/** Extents of a GEMM as a DimMap. */
Extents gemmExtents(const GemmShape &shape);

/** Extents of the layer's iAct tensor dims only (N,C,H,W or M,K). */
Extents iactExtents(const LayerSpec &layer);

} // namespace feather
