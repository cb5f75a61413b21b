#pragma once

/**
 * @file
 * Shared simulation driver: the one place that knows how to take a layer
 * from "shape on paper" to "bit-exact cycle-level run".
 *
 * Every example, benchmark and the `feather_cli` front-end used to carry a
 * private copy of the same boilerplate — build a LayerSpec, randomize int8
 * tensors, construct a FeatherAccelerator, load activations under a layout,
 * pick a mapping, run, and diff the read-back against tensor/reference_ops.
 * That boilerplate lives here now; a new workload is a few driver calls (or
 * a scenario-registry entry, see sim/scenario.hpp), not a new main().
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "feather/accelerator.hpp"
#include "nest/nest_mapping.hpp"
#include "sim/engine_mode.hpp"
#include "tensor/tensor.hpp"
#include "workload/shapes.hpp"

namespace feather {
namespace sim {

// ---------------------------------------------------------------------------
// Layer construction
// ---------------------------------------------------------------------------

/** Square-input convolution layer: C in-channels on an HW x HW map, M
 *  kernels of RS x RS. */
LayerSpec convLayer(std::string name, int64_t c, int64_t hw, int64_t m,
                    int64_t rs, int64_t stride = 1, int64_t pad = 0);

/** Fully general convolution layer. */
LayerSpec convLayer2d(std::string name, int64_t c, int64_t h, int64_t w,
                      int64_t m, int64_t r, int64_t s, int64_t stride,
                      int64_t pad);

/** Depthwise convolution layer (one RS x RS filter per channel). */
LayerSpec depthwiseLayer(std::string name, int64_t c, int64_t hw, int64_t rs,
                         int64_t stride = 1, int64_t pad = 0);

/** GEMM layer: inputs M x K, weights K x N. */
LayerSpec gemmLayer(std::string name, int64_t m, int64_t n, int64_t k);

// ---------------------------------------------------------------------------
// Inputs and golden reference
// ---------------------------------------------------------------------------
//
// Input generation is concurrency-safe by construction: there is no shared
// generator state. Each caller owns its Rng — runLayer/runChain seed a local
// one from RunOptions::seed, and batch jobs (serve::BatchEngine) derive
// theirs from Rng::deriveStream(base_seed, job_index) — so concurrent runs
// are bit-identical regardless of thread count or scheduling.

/** Random iActs of the layer's input shape ([1,C,H,W] conv, [M,K] GEMM),
 *  uniform in [-50, 50]. */
Int8Tensor randomIacts(const LayerSpec &layer, Rng &rng);

/** Random weights of the layer's weight shape ([M,C,R,S] conv, [C,1,R,S]
 *  depthwise, [K,N] GEMM), uniform in [-50, 50]. */
Int8Tensor randomWeights(const LayerSpec &layer, Rng &rng);

/**
 * Golden output of @p layer via tensor/reference_ops: conv2d /
 * depthwiseConv2d / gemm with the quant zero points, requantized by the QM
 * multiplier.
 */
Int8Tensor referenceOutput(const LayerSpec &layer, const Int8Tensor &iacts,
                           const Int8Tensor &weights, const LayerQuant &quant);

/** Number of element-wise mismatches (shape mismatch counts every element). */
int64_t countMismatches(const Int8Tensor &got, const Int8Tensor &want);

// ---------------------------------------------------------------------------
// Dataflow selection
// ---------------------------------------------------------------------------

/** Named dataflow families the driver can instantiate for any layer. */
enum class DataflowKind : uint8_t {
    Canonical,       ///< NestMapping::canonical (weight-stationary)
    ChannelParallel, ///< C across columns (BIRRD spatial reduction)
    WindowParallel,  ///< output windows (Q) across columns
};

/** Parse "ws"/"canonical", "cp"/"channel-parallel", "wp"/"window-parallel". */
std::optional<DataflowKind> parseDataflow(const std::string &name);

std::string toString(DataflowKind kind);

/**
 * Instantiate @p kind for @p layer on an AW x AH array. Falls back to the
 * canonical mapping when the family does not apply (e.g. window-parallel
 * GEMM); returns nullopt with @p error set when the result fails
 * NestMapping::validate or its local tile overflows the PE register file
 * (FeatherConfig::max_local).
 */
std::optional<NestMapping> buildMapping(DataflowKind kind,
                                        const LayerSpec &layer, int aw, int ah,
                                        std::string *error = nullptr);

/**
 * Empty when @p layout bound to @p extents fits one StaB half of an
 * @p aw-bank array (FeatherConfig::stab_depth words per bank, counted by
 * bankWords), else a one-line error naming @p what, the words needed and
 * the depth.
 */
std::string stabFitError(const Layout &layout, const Extents &extents,
                         int aw, const std::string &what);

/**
 * The concordant *input* layout of @p mapping on an AW-bank StaB: one line
 * feeds all columns in one cycle (channel-last for C-parallel columns,
 * row-major for window-parallel, MK_K tiles for GEMM).
 */
Layout concordantInputLayout(const LayerSpec &layer, const NestMapping &mapping,
                             int aw);

/** The concordant layout of the layer's *output* tensor (what RIR writes so
 *  the next layer of the same dataflow family reads conflict-free). */
Layout concordantOutputLayout(const LayerSpec &layer,
                              const NestMapping &mapping, int aw);

/**
 * The planning artifacts of one (layer, dataflow, AW, AH) point: the NEST
 * mapping plus the concordant in/out layouts it induces. This is the unit
 * serve::PlanCache memoizes across batch jobs — per job the sim still runs,
 * but planning is shared.
 */
struct LayerPlan
{
    NestMapping mapping;
    Layout in_layout;
    Layout out_layout;
};

/**
 * buildMapping + both concordant layouts in one call; nullopt (with
 * @p error set) when the mapping does not fit or fails validation, or
 * StaB cannot hold a tensor under its layout (stabFitError). The plan is
 * the same for both engine tiers.
 */
std::optional<LayerPlan> planLayer(DataflowKind kind, const LayerSpec &layer,
                                   int aw, int ah,
                                   std::string *error = nullptr);

// ---------------------------------------------------------------------------
// Single-layer runs
// ---------------------------------------------------------------------------

/** Options for runLayer / runChain; every field has a usable default. */
struct RunOptions
{
    int aw = 8;
    int ah = 8;
    /** Execution tier (sim/engine_mode.hpp); analytic skips data + verify. */
    EngineMode engine = EngineMode::Cycle;
    uint64_t seed = 2024;
    /** The layer's plan (runLayer). Unset fields derive from the mapping
     *  (concordant layouts) or the layer (canonical mapping). runChain
     *  reads only in_layout, for the first step's load. */
    std::optional<NestMapping> mapping;
    std::optional<Layout> in_layout;
    std::optional<Layout> out_layout;
    LayerQuant quant = defaultQuant();
    bool verify = true;       ///< diff against referenceOutput
    /** The chain's golden final output, when a caller already holds it
     *  (chainReference of the same steps at the same seed): runChain
     *  verifies against it instead of recomputing the reference ops.
     *  Shared read-only, so one tensor serves concurrent chains. */
    std::shared_ptr<const Int8Tensor> reference;
    size_t trace_events = 0;  ///< capture first N StaB reads/writes

    static LayerQuant
    defaultQuant()
    {
        LayerQuant q;
        q.multiplier = 0.02f;
        return q;
    }
};

/** Everything a caller may want to report about one layer run. */
struct RunResult
{
    LayerStats stats;
    NestMapping mapping;
    Layout in_layout;
    Layout out_layout;
    Int8Tensor output;      ///< read-back oActs
    int64_t checked = 0;    ///< elements compared (0 when verify = false)
    int64_t mismatches = 0;
    std::vector<TraceEvent> trace;

    bool bitExact() const { return checked > 0 && mismatches == 0; }
    double utilization(int aw, int ah) const
    {
        return stats.utilization(aw * ah);
    }
};

/**
 * Run @p layer as a one-step runChain under opts.mapping / out_layout /
 * quant: cycle mode builds a fresh FEATHER instance with seeded random
 * inputs and (by default) verifies the read-back bit-exactly against the
 * reference ops; analytic mode resolves the same mapping/layouts and fills
 * stats from the closed-form model (checked == 0, empty output).
 */
RunResult runLayer(const LayerSpec &layer, const RunOptions &opts = {});

// ---------------------------------------------------------------------------
// Multi-layer chains (StaB ping-pong, per-layer dataflow/layout co-switch)
// ---------------------------------------------------------------------------

/** One step of a chain; unset fields derive like RunOptions. */
struct ChainStep
{
    LayerSpec layer;
    std::optional<NestMapping> mapping;
    std::optional<Layout> out_layout;
    LayerQuant quant = RunOptions::defaultQuant();
};

/** The seeded tensors of a cycle-tier chain: the first step's iActs, then
 *  each step's weights, drawn in that order from one Rng(seed). */
struct ChainInputs
{
    Int8Tensor iacts;
    std::vector<Int8Tensor> weights;
};

/** The one draw of a chain's inputs; runChain and every shared reference
 *  (RunOptions::reference) take their tensors from it. */
ChainInputs drawChainInputs(const std::vector<ChainStep> &steps,
                            uint64_t seed);

/** Golden final output of @p steps on @p in: referenceOutput of each step
 *  fed the previous step's output. */
Int8Tensor chainReference(const std::vector<ChainStep> &steps,
                          const ChainInputs &in);

struct ChainResult
{
    std::vector<RunResult> layers; ///< per-layer stats (output kept on last)
    int64_t checked = 0;           ///< final-output elements compared
    int64_t mismatches = 0;

    bool bitExact() const { return checked > 0 && mismatches == 0; }
    int64_t totalCycles() const;
};

/**
 * The one body that executes layers, in either tier. Every step's mapping
 * and layouts resolve here: an unset mapping is canonical, the first
 * step's input layout is opts.in_layout or concordant, and an unset
 * out_layout is the next step's concordant input (the co-switch) or, on
 * the last step, the concordant output. Of RunOptions' per-layer fields
 * only in_layout is read; mapping/out_layout/quant come from the steps.
 *
 * Cycle mode runs the steps back-to-back on one accelerator, threading
 * activations through the StaB ping-pong, then verifies the *final*
 * activations element by element against the chained reference ops
 * (opts.reference when set, else chainReference). Analytic mode fills each
 * step's stats from the closed-form model (checked == 0, no output).
 */
ChainResult runChain(const std::vector<ChainStep> &steps,
                     const RunOptions &opts = {});

} // namespace sim
} // namespace feather
