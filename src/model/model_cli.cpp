#include "model/model_cli.hpp"

#include <cstdio>

#include "common/io.hpp"
#include "common/options.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "model/fleet.hpp"
#include "model/report.hpp"
#include "serve/batch_cli.hpp"
#include "sim/cli.hpp"

namespace feather {
namespace model {

bool
isModelInvocation(const std::vector<std::string> &args)
{
    for (const std::string &arg : args) {
        if (arg == "--model" || arg == "--schedule" ||
            arg == "--list-models") {
            return true;
        }
    }
    return false;
}

namespace {

/** The one declaration of every model-mode flag, storing into @p o: the
 *  parse and the usage section both derive from it. */
OptionTable
modelOptions(ModelCliOptions *o)
{
    OptionTable t;
    t.unknownSuffix(" in model mode (--model runs accept --schedule, "
                    "--fleet, --aw, --ah, --seed, --jobs, --engine, "
                    "--report-csv, --report-json)");
    t.str("--model", "NAME|FILE",
          "schedule a built-in model graph or a model\n"
          "file (layer lines: conv/depthwise/pointwise/\n"
          "gemm key=value...)",
          &o->model);
    t.str("--schedule", "S",
          "per-layer (DP over dataflow candidates and\n"
          "BIRRD reorder costs), greedy, fixed:<ws|cp|wp>\n"
          "or pinned:<device> (default: per-layer)",
          &o->schedule);
    t.str("--fleet", "SPEC|F",
          "split the graph across a device fleet\n"
          "(e.g. feather:16x16,feather:32x32,tpu-like)",
          &o->fleet);
    t.positiveInt("--aw", "N", "array width (default: model's)", &o->aw,
                  65536);
    t.positiveInt("--ah", "N", "array height (default: model's)", &o->ah,
                  65536);
    t.nonNegative("--seed", "N", "RNG seed for inputs (default: 2024)",
                  &o->seed);
    t.positiveInt("--jobs", "N", "candidate-evaluation worker threads",
                  &o->jobs, 256);
    sim::addEngineFlag(t, "candidate-evaluation tier; the final chosen\n"
                          "schedule is always measured cycle-accurately",
                          &o->engine);
    t.str("--report-csv", "F", "write the schedule report as CSV to F",
          &o->report_csv);
    t.str("--report-json", "F",
          "write the schedule report as JSON to F", &o->report_json);
    t.flag("--list-models", "list the built-in model graphs and exit",
           &o->list_models);
    t.flag("--help", "show this text", &o->help);
    return t;
}

/** The whole feather_cli usage text: sim::usage with the batch and model
 *  sections rendered from their option tables. */
std::string
usage()
{
    serve::BatchCliOptions batch;
    ModelCliOptions model;
    return sim::usage(
        "\nbatch mode (multi-threaded serve engine; see src/serve):\n" +
        serve::batchOptions(&batch).helpText() +
        "\nmodel mode (whole-graph per-layer scheduler; see src/model):\n" +
        modelOptions(&model).helpText());
}

} // namespace

ModelCliParse
parseModelCli(const std::vector<std::string> &args)
{
    ModelCliParse parse;
    ModelCliOptions &o = parse.opts;
    if (!modelOptions(&o).parse(args, &parse.error)) return parse;
    if (!o.help && !o.list_models && o.model.empty()) {
        parse.error = "model mode needs --model NAME|FILE "
                      "(see --list-models)";
    }
    return parse;
}

int
cliMain(int argc, const char *const *argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
    if (!isModelInvocation(args)) return serve::cliMain(argc, argv, usage());

    const ModelCliParse parse = parseModelCli(args);
    if (!parse.ok()) {
        std::fprintf(stderr, "error: %s\n\n%s", parse.error.c_str(),
                     usage().c_str());
        return 2;
    }
    const ModelCliOptions &o = parse.opts;
    if (o.help) {
        std::printf("%s", usage().c_str());
        return 0;
    }
    if (o.list_models) {
        Table t({"model", "layers", "array", "macs", "summary"});
        for (const ModelGraph &g : builtinModels()) {
            t.addRow({g.name, std::to_string(g.layers.size()),
                      strCat(g.default_aw, "x", g.default_ah),
                      std::to_string(g.totalMacs()), g.summary});
        }
        std::printf("%s", t.toString().c_str());
        return 0;
    }

    std::string error;
    const std::optional<ModelGraph> graph = loadModel(o.model, &error);
    if (!graph) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    const std::optional<SchedulePolicy> policy =
        parseSchedule(o.schedule, &error);
    if (!policy) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }

    SchedulerOptions sopts;
    sopts.aw = o.aw;
    sopts.ah = o.ah;
    sopts.seed = o.seed;
    sopts.num_threads = o.jobs;
    sopts.engine = o.engine;
    if (!o.fleet.empty() &&
        !parseFleetSpec(o.fleet, &sopts.fleet, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    Scheduler scheduler(sopts);
    const std::optional<ScheduleComparison> cmp =
        scheduler.compare(*graph, *policy, &error);
    if (!cmp) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }

    ScheduleReport report{*cmp};
    if (sopts.fleet.enabled()) {
        std::printf("model %s over fleet [%s] (schedule %s, seed %llu, "
                    "%d worker thread(s))\n",
                    graph->name.c_str(), sopts.fleet.spec.c_str(),
                    o.schedule.c_str(), (unsigned long long)o.seed,
                    o.jobs);
    } else {
        std::printf("model %s on %dx%d FEATHER (schedule %s, seed %llu, "
                    "%d worker thread(s))\n",
                    graph->name.c_str(), report.comparison.primary().aw,
                    report.comparison.primary().ah, o.schedule.c_str(),
                    (unsigned long long)o.seed, o.jobs);
    }
    std::printf("%s", report.layerTable().c_str());
    std::printf("schedule ranking (* = selected):\n%s",
                report.comparisonTable().c_str());
    std::printf("%s", report.summaryLine().c_str());

    if (!writeReport(o.report_csv, report.toCsv()) ||
        !writeReport(o.report_json, report.toJson())) {
        return 2;
    }
    return report.comparison.primary().bitExact() ? 0 : 1;
}

} // namespace model
} // namespace feather
