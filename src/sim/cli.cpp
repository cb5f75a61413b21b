#include "sim/cli.hpp"

#include <cstdio>

#include "common/log.hpp"
#include "common/options.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "sim/scenario.hpp"

namespace feather {
namespace sim {

namespace {

/** The one declaration of every single-run flag: the parse loop and the
 *  usage text both derive from this table (common/options.hpp). */
OptionTable
simOptions(CliOptions *o)
{
    OptionTable t;
    t.str("--workload", "NAME", "scenario to run (default: quickstart_conv)",
          &o->workload);
    t.str("--dataflow", "KIND",
          "override every layer's dataflow family:\n"
          "ws|canonical, cp|channel-parallel,\n"
          "wp|window-parallel (default: per-layer choice)",
          &o->dataflow);
    t.str("--layout", "L",
          "first layer's iAct layout: 'concordant' or a\n"
          "layout string like HWC_C8 (default: concordant)",
          &o->layout);
    // A 64k-PE edge keeps int(n) well-defined and rejects typos like
    // --aw 4294967296 instead of silently truncating them.
    t.rangedInt("--aw", "N", "array width (default: scenario's)", &o->aw,
                65536);
    t.rangedInt("--ah", "N", "array height (default: scenario's)", &o->ah,
                65536);
    t.nonNegative("--seed", "N", "RNG seed for inputs (default: 2024)",
                  &o->seed);
    addEngineFlag(t, "simulation engine tier (default: cycle):\n"
                     "cycle    bit-exact NoC replay, verified against\n"
                     "         the reference operators\n"
                     "analytic closed-form cycle/energy estimates\n"
                     "         from the mapping (no per-element\n"
                     "         replay, nothing to verify)",
                     &o->engine);
    t.custom("--trace", "N", "print the first N StaB read/write events",
             [o](const std::string &v) {
                 uint64_t n = 0;
                 if (!parseUint(v, &n)) {
                     return OptionTable::invalidValue(
                         "--trace", v, "a non-negative integer");
                 }
                 o->trace = size_t(n);
                 return std::string();
             });
    t.flag("--list", "list the registered scenarios and exit", &o->list);
    t.flag("--help", "show this text", &o->help);
    return t;
}

} // namespace

void
addEngineFlag(OptionTable &table, const std::string &help, EngineMode *out)
{
    table.custom("--engine", "MODE", help, [out](const std::string &v) {
        const std::optional<EngineMode> mode = parseEngineMode(v);
        if (!mode) {
            return OptionTable::invalidValue("--engine", v,
                                             "cycle or analytic");
        }
        *out = *mode;
        return std::string();
    });
}

std::string
usage(const std::string &modes)
{
    CliOptions dummy;
    std::string text =
        "usage: feather_cli [options]\n"
        "\n"
        "Run a named workload scenario on the FEATHER cycle-level simulator\n"
        "and verify the result bit-exactly against the reference operators.\n"
        "\n"
        "options:\n" +
        simOptions(&dummy).helpText() + modes +
        "\n"
        "long-running serving (continuous batching, admission control,\n"
        "latency percentiles) lives in the separate feather_serve binary\n"
        "(see src/daemon; feather_serve --help).\n"
        "\n"
        "scenarios:\n";
    for (const ModelGraph &s : scenarios()) {
        text += "  " + s.name;
        text.append(s.name.size() < 18 ? 18 - s.name.size() : 1, ' ');
        text += s.summary + "\n";
    }
    return text;
}

CliParse
parseCli(const std::vector<std::string> &args)
{
    CliParse parse;
    simOptions(&parse.opts).parse(args, &parse.error);
    return parse;
}

int
cliMain(int argc, const char *const *argv, const std::string &usage_text)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

    const CliParse parse = parseCli(args);
    if (!parse.ok()) {
        std::fprintf(stderr, "error: %s\n\n%s", parse.error.c_str(),
                     usage_text.c_str());
        return 2;
    }
    const CliOptions &o = parse.opts;
    if (o.help) {
        std::printf("%s", usage_text.c_str());
        return 0;
    }
    if (o.list) {
        Table t({"scenario", "layers", "array", "summary"});
        for (const ModelGraph &s : scenarios()) {
            t.addRow({s.name, std::to_string(s.layers.size()),
                      strCat(s.default_aw, "x", s.default_ah), s.summary});
        }
        std::printf("%s", t.toString().c_str());
        return 0;
    }

    const ModelGraph *scenario = findScenario(o.workload);
    if (!scenario) {
        std::fprintf(stderr, "error: unknown workload '%s'; known:",
                     o.workload.c_str());
        for (const std::string &name : scenarioNames()) {
            std::fprintf(stderr, " %s", name.c_str());
        }
        std::fprintf(stderr, "\n");
        return 2;
    }

    ScenarioOptions sopts;
    sopts.aw = o.aw;
    sopts.ah = o.ah;
    sopts.dataflow = o.dataflow;
    sopts.layout = o.layout;
    sopts.engine = o.engine;
    sopts.seed = o.seed;
    sopts.trace_events = o.trace;

    std::string error;
    const std::optional<ScenarioRun> run =
        runScenario(*scenario, sopts, &error);
    if (!run) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }

    std::printf("%s on %dx%d FEATHER (engine %s, seed %llu)\n",
                scenario->name.c_str(), run->aw, run->ah,
                toString(o.engine).c_str(), (unsigned long long)o.seed);
    Table t({"layer", "mapping", "iAct layout", "oAct layout", "cycles",
             "util", "rd stalls", "wr stalls"});
    const int num_pes = run->aw * run->ah;
    for (size_t i = 0; i < run->chain.layers.size(); ++i) {
        const RunResult &r = run->chain.layers[i];
        t.addRow({scenario->layers[i].spec.name, r.mapping.toString(),
                  r.in_layout.toString(), r.out_layout.toString(),
                  std::to_string(r.stats.cycles),
                  fmtPercent(r.stats.utilization(num_pes)),
                  std::to_string(r.stats.read_stall_cycles),
                  std::to_string(r.stats.write_stall_cycles)});
    }
    std::printf("%s", t.toString().c_str());

    if (o.trace > 0) {
        Table tr({"event", "step", "bank", "line"});
        for (const TraceEvent &ev : run->chain.layers.back().trace) {
            tr.addRow({ev.kind == TraceEvent::Kind::StabRead
                           ? "StaB-Ping read"
                           : "StaB-Pong write",
                       std::to_string(ev.step), std::to_string(ev.bank),
                       std::to_string(ev.addr)});
        }
        std::printf("%s", tr.toString().c_str());
    }

    if (o.engine == EngineMode::Analytic) {
        // Analytic runs estimate from the mapping without producing
        // outputs, so there is nothing to verify and no failure to signal.
        std::printf("total cycles: %lld (analytic estimate; run with "
                    "--engine cycle to verify)\n",
                    (long long)run->chain.totalCycles());
        return 0;
    }
    std::printf("total cycles: %lld; oActs bit-exact vs reference_ops: %s\n",
                (long long)run->chain.totalCycles(),
                run->chain.bitExact() ? "yes" : "NO");
    return run->chain.bitExact() ? 0 : 1;
}

} // namespace sim
} // namespace feather
