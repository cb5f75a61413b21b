#pragma once

/**
 * @file
 * Model-mode front-end of `feather_cli`: schedule a whole model graph
 * with per-layer dataflow/layout switching and report the result.
 *
 *   feather_cli --model resnet_block --schedule per-layer
 *   feather_cli --model nets/edge.model --schedule fixed:ws --jobs 8
 *   feather_cli --model bert_mlp --fleet feather:16x16,tpu-like
 *   feather_cli --list-models
 */

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine_mode.hpp"

namespace feather {
namespace model {

/** Parsed model-mode options. */
struct ModelCliOptions
{
    std::string model;                 ///< built-in name or model file path
    std::string schedule = "per-layer";
    /** --fleet SPEC|FILE: split the graph across a device fleet (adds a
     *  device column to reports and pinned:<dev> ranking rows). */
    std::string fleet;
    int aw = 0; ///< 0 = graph default
    int ah = 0;
    uint64_t seed = 2024;
    int jobs = 1; ///< candidate-evaluation worker threads
    /** --engine: tier for candidate evaluation (measurement stays cycle). */
    sim::EngineMode engine = sim::EngineMode::Cycle;
    std::string report_csv;
    std::string report_json;
    bool list_models = false;
    bool help = false;
};

/** Result of parsing an argv tail; ok() iff error is empty. */
struct ModelCliParse
{
    ModelCliOptions opts;
    std::string error;

    bool ok() const { return error.empty(); }
};

/** @return true when @p args selects model mode (--model/--schedule/
 *  --list-models). */
bool isModelInvocation(const std::vector<std::string> &args);

/** Parse the arguments after argv[0]. */
ModelCliParse parseModelCli(const std::vector<std::string> &args);

/**
 * The `feather_cli` entry point. Model invocations load the graph,
 * schedule it and print the per-layer choices and the schedule ranking;
 * anything else goes to serve::cliMain (batch, else single run). Returns
 * 0 on a verified run, 1 on a numeric mismatch, 2 on a usage error.
 */
int cliMain(int argc, const char *const *argv);

} // namespace model
} // namespace feather
