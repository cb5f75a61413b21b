#pragma once

/**
 * @file
 * Command-line front-end of the simulation driver, factored into a library
 * so the flag parser and the run orchestration are unit-testable without
 * spawning the `feather_cli` binary.
 *
 *   feather_cli --workload resnet_block --dataflow ws --layout concordant
 *   feather_cli --list
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "sim/engine_mode.hpp"

namespace feather {
namespace sim {

/** Parsed `feather_cli` options. */
struct CliOptions
{
    std::string workload = "quickstart_conv";
    std::string dataflow;              ///< empty = scenario's per-layer choice
    std::string layout = "concordant"; ///< first layer's iAct layout
    int aw = 0;                        ///< 0 = scenario default
    int ah = 0;
    uint64_t seed = 2024;
    /** --engine: cycle (bit-exact replay) or analytic (closed-form). */
    EngineMode engine = EngineMode::Cycle;
    size_t trace = 0; ///< print the first N StaB trace events
    bool list = false;
    bool help = false;
};

/** Result of parsing an argv tail; ok() iff error is empty. */
struct CliParse
{
    CliOptions opts;
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Parse the arguments after argv[0]. Unknown flags, missing values and
 * non-numeric values are rejected with a one-line error.
 */
CliParse parseCli(const std::vector<std::string> &args);

/**
 * The feather_cli usage text (printed by --help and on parse errors): the
 * single-run options, then @p modes, then the scenario list. @p modes
 * holds the batch and model sections, which model/model_cli.cpp renders
 * from the option tables their own libraries declare.
 */
std::string usage(const std::string &modes);

/** Declare `--engine MODE` on @p table with @p help, storing the parsed
 *  tier into @p out; every CLI (sim, batch, model, serve) shares this one
 *  definition and its "cycle or analytic" error text. */
void addEngineFlag(OptionTable &table, const std::string &help,
                   EngineMode *out);

/**
 * Full CLI entry point: parse, run the scenario, print per-layer stats and
 * the bit-exactness verdict. Returns 0 on a verified run (or an analytic
 * estimate, which has nothing to verify), 1 on a numeric mismatch, 2 on a
 * usage error. @p usage_text is what --help and a parse error print.
 */
int cliMain(int argc, const char *const *argv,
            const std::string &usage_text);

} // namespace sim
} // namespace feather
