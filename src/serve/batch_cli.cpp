#include "serve/batch_cli.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/io.hpp"
#include "common/options.hpp"
#include "common/parse.hpp"
#include "serve/engine.hpp"
#include "sim/cli.hpp"

namespace feather {
namespace serve {

bool
isBatchInvocation(const std::vector<std::string> &args)
{
    for (const std::string &arg : args) {
        if (arg == "--batch" || arg == "--sweep" || arg == "--jobs" ||
            arg == "--report-csv" || arg == "--report-json") {
            return true;
        }
    }
    return false;
}

OptionTable
batchOptions(BatchCliOptions *o)
{
    OptionTable t;
    t.unknownSuffix(" in batch mode (--batch/--sweep runs accept --jobs, "
                    "--seed, --engine, --report-csv, --report-json)");
    t.str("--batch", "FILE",
          "run the jobs listed in FILE, one per line:\n"
          "<scenario> [dataflow=..] [layout=..]\n"
          "[out_layout=..] [aw=N] [ah=N] [seed=N]\n"
          "[engine=cycle|analytic] [name=..] ('#' comments)",
          &o->batch_file);
    t.str("--sweep", "NAME",
          "run the (dataflow x array-size) grid over a\n"
          "scenario; infeasible grid points are skipped",
          &o->sweep);
    t.positiveInt("--jobs", "N",
                  "worker threads (default 1); the report is\n"
                  "bit-identical for any N",
                  &o->jobs, 256);
    t.nonNegative("--seed", "N",
                  "base seed; job i draws inputs from stream\n(seed, i)",
                  &o->seed);
    sim::addEngineFlag(t, "default tier for jobs that do not pin one",
                          &o->engine);
    t.str("--report-csv", "F", "write the per-job report as CSV to F",
          &o->report_csv);
    t.str("--report-json", "F", "write the report as single-line JSON to F",
          &o->report_json);
    t.flag("--help", "show this text", &o->help);
    return t;
}

BatchCliParse
parseBatchCli(const std::vector<std::string> &args)
{
    BatchCliParse parse;
    BatchCliOptions &o = parse.opts;
    if (!batchOptions(&o).parse(args, &parse.error)) return parse;
    if (o.help) return parse;
    if (o.batch_file.empty() == o.sweep.empty()) {
        parse.error = o.batch_file.empty()
                          ? "batch mode needs --batch FILE or --sweep "
                            "SCENARIO"
                          : "--batch and --sweep are mutually exclusive";
    }
    return parse;
}

int
batchMain(const BatchCliOptions &opts)
{
    BatchOptions engine_opts;
    engine_opts.num_threads = opts.jobs;
    engine_opts.base_seed = opts.seed;
    engine_opts.engine = opts.engine;
    BatchEngine engine(engine_opts);

    BatchReport report;
    if (!opts.sweep.empty()) {
        SweepSpec sweep;
        sweep.scenario = opts.sweep;
        std::vector<std::string> skipped;
        std::string error;
        const std::optional<BatchReport> r =
            engine.sweep(sweep, &skipped, &error);
        if (!r) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 2;
        }
        report = *r;
        for (const std::string &why : skipped) {
            std::printf("skipped %s\n", why.c_str());
        }
    } else {
        std::ifstream in(opts.batch_file, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "error: cannot read batch file '%s'\n",
                         opts.batch_file.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        std::vector<JobSpec> jobs;
        std::string error;
        if (!parseBatchFile(text.str(), &jobs, &error)) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 2;
        }
        report = engine.run(jobs);
    }

    std::printf("batch of %zu job(s) on %d worker thread(s), base seed "
                "%llu\n",
                report.jobs.size(), engine.options().num_threads,
                (unsigned long long)report.base_seed);
    std::printf("%s", report.summaryTable().c_str());

    if (!writeReport(opts.report_csv, report.toCsv()) ||
        !writeReport(opts.report_json, report.toJson())) {
        return 2;
    }
    return report.allOk() ? 0 : 1;
}

int
cliMain(int argc, const char *const *argv, const std::string &usage_text)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
    if (!isBatchInvocation(args)) return sim::cliMain(argc, argv, usage_text);

    const BatchCliParse parse = parseBatchCli(args);
    if (!parse.ok()) {
        std::fprintf(stderr, "error: %s\n\n%s", parse.error.c_str(),
                     usage_text.c_str());
        return 2;
    }
    if (parse.opts.help) {
        std::printf("%s", usage_text.c_str());
        return 0;
    }
    return batchMain(parse.opts);
}

} // namespace serve
} // namespace feather
