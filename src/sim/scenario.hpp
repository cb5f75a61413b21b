#pragma once

/**
 * @file
 * The one workload type, ModelGraph: a chain of MAC layers threaded
 * through the StaB ping-pong, each of which may pin its dataflow family.
 * A scenario is a graph whose every layer is pinned, run as written (a
 * model, model/graph.hpp, is searched instead). Adding a workload to the
 * simulator means adding one entry to scenarios() — not writing a new
 * main(). Every scenario runs bit-exact against tensor/reference_ops.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/driver.hpp"

namespace feather {
namespace sim {

/** One layer of a graph. */
struct ModelLayer
{
    ModelLayer() = default;
    ModelLayer(LayerSpec spec_, float multiplier_ = 0.02f)
        : spec(std::move(spec_)), multiplier(multiplier_)
    {}
    /** A layer pinned to @p pin. */
    ModelLayer(LayerSpec spec_, DataflowKind pin, float multiplier_ = 0.02f)
        : spec(std::move(spec_)), multiplier(multiplier_), dataflow(pin)
    {}

    LayerSpec spec;
    float multiplier = 0.02f; ///< QM rescale applied after this layer
    /** Dataflow family this layer is pinned to; unset = chosen by the
     *  caller (a run's dataflow override, or the scheduler's search). */
    std::optional<DataflowKind> dataflow;
};

/** A linear chain of MAC layers with validated tensor bindings. */
struct ModelGraph
{
    std::string name;
    std::string summary;
    std::vector<ModelLayer> layers;
    int default_aw = 8;
    int default_ah = 8;

    /**
     * Check the graph: every layer is a MAC operator with a finite,
     * positive qm multiplier; consecutive conv-like layers agree on
     * channels and spatial extents (m_i == c_{i+1}, outH/outW == h/w),
     * consecutive GEMMs agree on [M,N] -> [M,K], and conv<->GEMM
     * transitions are rejected. @return empty string if valid, else a
     * description.
     */
    std::string validate() const;

    /** Total MAC count over all layers. */
    int64_t totalMacs() const;
};

/** All registered scenarios, in presentation order; every layer of every
 *  entry is pinned. */
const std::vector<ModelGraph> &scenarios();

/** Lookup by name; nullptr when unknown. */
const ModelGraph *findScenario(const std::string &name);

/** Registered names, in presentation order. */
std::vector<std::string> scenarioNames();

/** Result of a scenario run (per-layer stats live in chain.layers). */
struct ScenarioRun
{
    ChainResult chain;
    int aw = 0;
    int ah = 0;
};

/** Overrides applied on top of a scenario's defaults. */
struct ScenarioOptions
{
    int aw = 0; ///< <= 0 picks the scenario default
    int ah = 0;
    std::string dataflow;              ///< empty = each layer's pin
    std::string layout = "concordant"; ///< first layer's iAct layout
    /** Last layer's oAct layout; "concordant" derives it from the mapping.
     *  This is the Fig. 10 "re-target the reduction to different StaB
     *  banks" knob: same routes, different bank assignment. */
    std::string out_layout = "concordant";
    /** Execution tier: cycle replays and verifies, analytic estimates. */
    EngineMode engine = EngineMode::Cycle;
    uint64_t seed = 2024;
    /** The scenario's golden output (scenarioReference at this seed),
     *  when the caller shares one between runs; see RunOptions. */
    std::shared_ptr<const Int8Tensor> reference;
    size_t trace_events = 0;
};

/**
 * Source of per-layer planning artifacts. runScenario consults it for every
 * (dataflow, layer, aw, ah) point; an empty PlanFn is a plain planLayer
 * call, and serve::PlanCache injects its memoizing lookup through the same
 * signature (sim stays below serve in the layering).
 */
using PlanFn = std::function<std::optional<LayerPlan>(
    EngineMode mode, DataflowKind kind, const LayerSpec &layer, int aw,
    int ah, std::string *error)>;

/** BIRRD's router reachability masks support 64 inputs (one per column),
 *  so 64 is the widest array the cycle engine can actually run. */
constexpr int kMaxFeatherCols = 64;

/**
 * Why an @p aw x @p ah array cannot run anything (BIRRD needs a
 * power-of-two width in 2..kMaxFeatherCols, NEST a height >= 1), or ""
 * when it can.
 */
std::string arrayShapeError(int aw, int ah);

/**
 * Run @p scenario under @p opts: every layer at opts.dataflow when set,
 * else at its pin; opts.layout replaces the first layer's input layout
 * and opts.out_layout the last layer's output layout ("concordant"
 * derives them from the mapping).
 * Planning goes through @p plan (e.g. a shared cache; empty = planLayer).
 * Returns nullopt with @p error set when the graph fails validate(), a
 * layer has no dataflow, or an override does not apply (unknown dataflow
 * name, unparsable layout, or a mapping that fails validation).
 */
std::optional<ScenarioRun> runScenario(const ModelGraph &scenario,
                                       const ScenarioOptions &opts = {},
                                       std::string *error = nullptr,
                                       const PlanFn &plan = {});

/**
 * The golden final output every cycle-tier runScenario of @p scenario at
 * @p seed verifies against, whatever its dataflows, layouts and array
 * shape: the chain's drawChainInputs fed through chainReference. @p
 * scenario must pass validate().
 */
Int8Tensor scenarioReference(const ModelGraph &scenario, uint64_t seed);

} // namespace sim
} // namespace feather
