#pragma once

/**
 * @file
 * The benchmark's own seeded input generators.
 *
 * Every workload's inputs come from --seed through these functions and
 * nothing else; the program under test only ever sees the generated
 * graphs, sweep specs and request lines. Each generator also returns the
 * canonical text of its inputs, whose SHA-256 the harness prints, so two
 * runs can show they replayed byte-identical inputs.
 *
 * The seed picks tensor data, the order of array shapes inside a sweep,
 * arrival gaps, clients and priorities. The work of one round (which
 * graphs, which scenario/engine/dataflow combinations, which array shapes
 * share a sweep) and the order of its ops are fixed per workload, so
 * every seed asks the simulator for the same cycles and the same amount
 * of host work: spreads measured across seeds are then the host's noise,
 * not the generator's. Each workload's warm-up op is of one fixed kind
 * for the same reason.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "model/graph.hpp"

namespace bench {

/** One model_search op: compare() over graphs[graph] with tensor data
 *  drawn from @p data_seed. */
struct ModelOp
{
    size_t graph = 0;
    uint64_t data_seed = 0;
};

struct ModelSearchInputs
{
    /** The 4 fixed graphs (resnet_block, mobilenet_slice, bert_mlp,
     *  models/tiny_cnn.model) first, then the 4 generated chains. */
    std::vector<feather::model::ModelGraph> graphs;
    std::vector<ModelOp> ops; ///< one round
    ModelOp warmup;           ///< resnet_block
    std::string canonical;
};

/** Number of fixed graphs at the front of ModelSearchInputs::graphs. */
constexpr size_t kFixedGraphs = 4;

/** False with @p error set when models/tiny_cnn.model (read relative to
 *  the working directory, the repo root) is missing or a graph does not
 *  parse. */
bool makeModelSearchInputs(uint64_t seed, ModelSearchInputs *out,
                           std::string *error);

/** One sweep_analytic op: a sweep of @p scenario over 6 array shapes. */
struct SweepOp
{
    std::string scenario;
    std::vector<std::pair<int, int>> arrays;
    uint64_t base_seed = 0;
};

struct SweepInputs
{
    std::vector<SweepOp> ops; ///< one round
    SweepOp warmup;           ///< conv3x3 over 6 fixed shapes
    std::string canonical;
};

SweepInputs makeSweepInputs(uint64_t seed);

/** One round of serving requests as JSON lines (pinned arrivals). */
struct TraceInputs
{
    std::vector<std::string> lines;
    std::string warmup; ///< conv3x3 (serve_mixed) or resnet_block (fleet)
    std::string canonical;
};

/** serve_mixed: scenario requests only. */
TraceInputs makeMixedTrace(uint64_t seed);

/** serve_graph_fleet: 3/4 whole-model requests, 1/4 scenario requests. */
TraceInputs makeFleetTrace(uint64_t seed);

} // namespace bench
