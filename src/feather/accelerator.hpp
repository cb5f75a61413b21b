#pragma once

/**
 * @file
 * FEATHER accelerator: the full compute pipeline of Fig. 7/8 —
 *
 *   StaB (ping) -> NEST -> BIRRD (reorder-in-reduction) -> OB -> QM
 *        -> StaB (pong, *new layout*)
 *
 * The simulator is cycle-accounting and bit-exact: every partial sum flows
 * through the NEST local reduction, the BIRRD reduction, the Output
 * Buffer's in-situ temporal accumulation, and the FBGEMM-style Quantize
 * Module; results land in per-bank StaB addresses dictated by the *next
 * layer's* layout (RIR, §IV). Numerics are validated against
 * tensor/reference_ops in the test suite.
 *
 * run() walks every temporal step through NestGeometry::step, the one
 * per-step body the analytic tier (feather/analytic.hpp) probes: it
 * prices feed (StaB bank conflicts), bus (BIRRD write-port waves) and
 * t1 into max(feed, bus, t1) cycles, and replays each row's output
 * control (waves, switch hops, OB destinations) from an output plan
 * compiled once per output-table shape, its hops from the compiled-wave
 * table (noc/router.hpp), the Instruction Buffer analogue, and each row's
 * iAct gather from an input plan compiled once per (iAct-table shape,
 * output plan). What run() adds is the data: one StaB read per distinct
 * word per cycle (and its trace event; a row sharing row 0's iAct stream
 * keeps row 0's iActs and only traces its reads), the NEST weight loads,
 * each active column's int32 dot product (NestArray::dot, on a weight
 * tile sized by the run's t1) summed into its group's uint32 BIRRD sum,
 * each group's sum accumulated into the OB, and the requantized oAct
 * written to StaB pong when its last partial sum lands.
 * The OB is a flat table over the layer's output region, one 32-bit
 * accumulator and countdown per (bank, address), with a count of its live
 * entries. The NEST iAct staging and the step scratch persist across
 * runs, so a warm run allocates the same whatever its step count; each
 * run reports their bytes (the staging plus StepScratch::flatBytes) as
 * LayerStats::arena_peak_bytes.
 *
 * cycleLayerStats is the same walk with a sink that moves no data: one
 * step loop serves both, so its counters are run()'s, at the cost of the
 * control alone.
 */

#include <cstdint>
#include <vector>

#include "buffer/scratchpad.hpp"
#include "feather/config.hpp"
#include "feather/nest_geometry.hpp"
#include "layout/layout.hpp"
#include "nest/nest_array.hpp"
#include "nest/nest_mapping.hpp"
#include "tensor/tensor.hpp"
#include "workload/shapes.hpp"

namespace feather {

/**
 * Extents of a layer's oAct tensor in next-layer iAct space — the space
 * oAct layouts are written in (RIR: StaB pong holds the next layer's
 * inputs): conv (M,P,Q) -> (C,H,W), GEMM N -> K. This is the binding
 * FeatherAccelerator::run applies to its out_layout; layout validators
 * must use it too.
 */
Extents oactIactExtents(const LayerSpec &layer);

/** One entry of the Fig. 11-style read/write trace. */
struct TraceEvent
{
    enum class Kind : uint8_t { StabRead, StabWrite } kind;
    int64_t step;  ///< temporal step index
    int64_t bank;
    int64_t addr;  ///< line within the bank
};

/**
 * The cycle tier's LayerStats for running @p layer under @p mapping with
 * iActs stored as @p in_layout and oActs written as @p out_layout (bound
 * in next-layer iAct space, oactIactExtents), without moving data: every
 * temporal step of FeatherAccelerator::run's walk, with its weight-tile
 * cadence and OB countdown, so every counter equals run()'s. Makes the
 * checks loadIacts and run make (mapping, batch-1, StaB capacity of iActs
 * and oActs, OB countdown width, no incomplete accumulation at layer end)
 * and panics with their messages.
 */
LayerStats cycleLayerStats(const LayerSpec &layer, const NestMapping &mapping,
                           const Layout &in_layout, const Layout &out_layout,
                           const FeatherConfig &cfg);

/** The FEATHER accelerator instance. */
class FeatherAccelerator
{
  public:
    explicit FeatherAccelerator(FeatherConfig cfg);

    /**
     * Load a conv iAct tensor [1,C,H,W] (or GEMM input [M,K]) into StaB
     * ping under @p layout, as the host/DMA would before the first layer.
     */
    void loadIacts(const Int8Tensor &iacts, const Layout &layout);

    /**
     * Execute one layer.
     *
     * @param layer      conv / depthwise-conv / GEMM shape
     * @param weights    conv [M,C,R,S] (or [C,1,R,S] depthwise), GEMM [K,N]
     * @param mapping    NEST work assignment
     * @param out_layout layout the oActs materialise in (the next layer's
     *                   concordant layout — this is the RIR switch)
     * @param quant      zero points and QM multiplier
     *
     * Reads iActs from StaB ping, writes quantized oActs to StaB pong,
     * then swaps ping/pong so the next run() consumes them.
     */
    LayerStats run(const LayerSpec &layer, const Int8Tensor &weights,
                   const NestMapping &mapping, const Layout &out_layout,
                   const LayerQuant &quant);

    /**
     * Read the current StaB ping contents back as a tensor (the oActs of
     * the last run() / the iActs of the next). Conv shape [1,M,P,Q]; GEMM
     * [M,N].
     */
    Int8Tensor readActivations() const;

    /** Enable capture of the first @p max_events StaB reads/writes; any
     *  cap is valid, as the trace holds only the events the runs make. */
    void enableTrace(size_t max_events);
    const std::vector<TraceEvent> &trace() const { return trace_; }

  private:
    void recordTrace(TraceEvent::Kind kind, int64_t step, int64_t bank,
                     int64_t addr);

    FeatherConfig cfg_;
    NestArray nest_;
    PingPong<BankedScratchpad<int8_t>> stab_;
    BoundLayout current_layout_;
    /** Per-run scratch, kept so its capacity is reused from run to run:
     *  the NEST iAct staging [aw x t1] and the step scratch (output plans
     *  included). */
    std::vector<int16_t> iact_vals_;
    NestGeometry::StepScratch scratch_{};
    bool iacts_loaded_ = false;

    std::vector<TraceEvent> trace_;
    size_t trace_cap_ = 0;
};

} // namespace feather
