#pragma once

/**
 * @file
 * Batch-mode front-end of `feather_cli`, factored into the serve library so
 * it is unit-testable without spawning the binary.
 *
 *   feather_cli --sweep quickstart_conv --jobs 8 --report-csv sweep.csv
 *   feather_cli --batch jobs.txt --jobs 4 --report-json report.json
 *
 * Invocations without a batch flag fall through to sim::cliMain, so the
 * single-scenario interface (`--workload ...`) is unchanged.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "sim/engine_mode.hpp"

namespace feather {
namespace serve {

/** Parsed batch-mode options. */
struct BatchCliOptions
{
    std::string batch_file;  ///< --batch FILE (one job per line)
    std::string sweep;       ///< --sweep SCENARIO (grid sweep)
    int jobs = 1;            ///< --jobs N (worker threads)
    uint64_t seed = 2024;    ///< --seed N (base seed for job streams)
    /** --engine cycle|analytic: default tier for jobs that do not pin one. */
    sim::EngineMode engine = sim::EngineMode::Cycle;
    std::string report_csv;  ///< --report-csv PATH
    std::string report_json; ///< --report-json PATH
    bool help = false;
};

/** Result of parsing an argv tail; ok() iff error is empty. */
struct BatchCliParse
{
    BatchCliOptions opts;
    std::string error;

    bool ok() const { return error.empty(); }
};

/** True when @p args selects batch mode (--batch/--sweep/--jobs/--report-*). */
bool isBatchInvocation(const std::vector<std::string> &args);

/** The one declaration of every batch-mode flag, storing into @p o: the
 *  parse and the usage section both derive from it. */
OptionTable batchOptions(BatchCliOptions *o);

/** Parse the arguments after argv[0] (batch mode only). */
BatchCliParse parseBatchCli(const std::vector<std::string> &args);

/**
 * Run batch mode under @p opts: expand the sweep or parse the batch file,
 * execute on the engine, print the summary table, and write the requested
 * report files. Returns 0 when every job verified bit-exactly, 1 on any
 * job failure, 2 on a usage/IO error.
 */
int batchMain(const BatchCliOptions &opts);

/**
 * Batch and single-run entry point: batch invocations run batchMain,
 * anything else is delegated to sim::cliMain. @p usage_text is what
 * --help and a parse error print.
 */
int cliMain(int argc, const char *const *argv,
            const std::string &usage_text);

} // namespace serve
} // namespace feather
