#pragma once

/**
 * @file
 * Named simulation scenarios for the `feather_cli` driver.
 *
 * A scenario is a workload (one layer, or a chain threaded through the StaB
 * ping-pong) together with the per-layer dataflow family it is meant to
 * exercise. Adding a workload to the simulator means adding one entry to
 * scenarios() — not writing a new main(). Every scenario runs bit-exact
 * against tensor/reference_ops via sim::runLayer / sim::runChain.
 */

#include <functional>
#include <string>
#include <vector>

#include "sim/driver.hpp"

namespace feather {
namespace sim {

/** One layer of a scenario plus the dataflow family it should run under. */
struct ScenarioLayer
{
    LayerSpec layer;
    DataflowKind dataflow = DataflowKind::Canonical;
    float multiplier = 0.02f; ///< QM rescale for this layer
};

/** A named, self-contained workload for the CLI and the smoke tests. */
struct Scenario
{
    std::string name;
    std::string summary;
    std::vector<ScenarioLayer> layers;
    int default_aw = 8;
    int default_ah = 8;
};

/** All registered scenarios, in presentation order. */
const std::vector<Scenario> &scenarios();

/** Lookup by name; nullptr when unknown. */
const Scenario *findScenario(const std::string &name);

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
    std::string dataflow;              ///< empty = per-layer family
    std::string layout = "concordant"; ///< first layer's iAct layout
    /** Last layer's oAct layout; "concordant" derives it from the mapping.
     *  This is the Fig. 10 "re-target the reduction to different StaB
     *  banks" knob: same routes, different bank assignment. */
    std::string out_layout = "concordant";
    /** Execution tier: cycle replays and verifies, analytic estimates. */
    EngineMode engine = EngineMode::Cycle;
    uint64_t seed = 2024;
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

/**
 * Run @p scenario under @p opts, honouring per-layer dataflow families
 * unless opts.dataflow overrides them; opts.layout replaces the first
 * layer's input layout and opts.out_layout the last layer's output layout
 * ("concordant" derives them from the mapping).
 * Planning goes through @p plan (e.g. a shared cache; empty = planLayer).
 * Returns nullopt with @p error set when an override does not apply
 * (unknown dataflow name, unparsable layout, or a mapping that fails
 * validation).
 */
std::optional<ScenarioRun> runScenario(const Scenario &scenario,
                                       const ScenarioOptions &opts = {},
                                       std::string *error = nullptr,
                                       const PlanFn &plan = {});

} // namespace sim
} // namespace feather
