#include "layers.hpp"

#include <array>
#include <optional>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "inputs.hpp"
#include "model/scheduler.hpp"
#include "serve/thread_pool.hpp"
#include "sim/driver.hpp"
#include "trace.hpp"

using feather::strCat;
namespace model = feather::model;
namespace sim = feather::sim;

namespace bench {

namespace {

/** Timed repeats per (layer, tier). The tiers take turns inside each
 *  repeat, so a slow moment on the host hits all three alike; medians are
 *  reported. */
constexpr int kRepeats = 7;

/** The modelled-hardware counters summed into hw.*, in report order. */
struct HwName
{
    const char *name;
    const char *unit;
};
constexpr std::array<HwName, 8> kHwNames = {{
    {"hw.compute_cycles", "cycles"},
    {"hw.fill_cycles", "cycles"},
    {"hw.weight_load_cycles", "cycles"},
    {"hw.read_stall_cycles", "cycles"},
    {"hw.write_stall_cycles", "cycles"},
    {"hw.birrd_switch_hops", "count"},
    {"hw.stab_reads", "count"},
    {"hw.dram_words", "count"},
}};

std::array<int64_t, 8>
hwCounters(const feather::LayerStats &s)
{
    return {s.compute_cycles,     s.fill_cycles,       s.weight_load_cycles,
            s.read_stall_cycles,  s.write_stall_cycles, s.birrd_switch_hops,
            s.stab_reads,         s.dram_words};
}

/** One runLayer call in a span named @p span; its time joins @p times. */
sim::RunResult
timedRun(const char *span, const feather::LayerSpec &layer,
         const sim::RunOptions &opts, std::vector<double> *times)
{
    Span s(span);
    sim::RunResult r = sim::runLayer(layer, opts);
    times->push_back(s.stop());
    return r;
}

} // namespace

std::vector<Metric>
simLayerMetrics(uint64_t seed, std::vector<std::string> *violations)
{
    ModelSearchInputs in;
    std::string err;
    if (!makeModelSearchInputs(seed, &in, &err)) {
        violations->push_back(err);
        return {};
    }
    std::vector<Metric> out;
    std::array<int64_t, 8> hw{};
    double cycle_s = 0.0, verify_s = 0.0, analytic_s = 0.0;
    int64_t cycles = 0;
    for (size_t g = 0; g < kFixedGraphs; ++g) {
        const model::ModelGraph &graph = in.graphs[g];
        model::SchedulerOptions opts;
        opts.seed = seed;
        model::Scheduler sched(opts);
        std::optional<model::ScheduleResult> plan;
        if (const std::optional<model::Evaluation> eval =
                sched.evaluate(graph, &err)) {
            plan = sched.schedule(graph, *eval, model::SchedulePolicy(), &err);
        }
        if (!plan) {
            violations->push_back(strCat(graph.name, ": ", err));
            continue;
        }
        for (size_t l = 0; l < graph.layers.size(); ++l) {
            const model::ModelLayer &ml = graph.layers[l];
            const model::LayerChoice &choice = plan->layers[l];
            sim::RunOptions ro;
            ro.aw = plan->aw;
            ro.ah = plan->ah;
            ro.seed = feather::Rng::deriveStream(seed, l);
            ro.mapping = choice.plan.mapping;
            ro.in_layout = choice.plan.in_layout;
            ro.out_layout = choice.plan.out_layout;
            ro.quant.multiplier = ml.multiplier;

            sim::RunOptions plain = ro; // ro verifies, as by default
            plain.verify = false;
            sim::RunOptions analytic = plain;
            analytic.engine = sim::EngineMode::Analytic;
            std::vector<double> cycle_t, verify_t, analytic_t;
            std::vector<sim::RunResult> runs;
            for (int i = 0; i < kRepeats; ++i) {
                runs.push_back(timedRun("sim.runLayer.cycle", ml.spec, plain,
                                        &cycle_t));
                runs.push_back(
                    timedRun("sim.runLayer.verify", ml.spec, ro, &verify_t));
                (void)timedRun("sim.runLayer.analytic", ml.spec, analytic,
                               &analytic_t);
            }
            const double t_cycle = percentile(cycle_t, 50);
            const double t_verify = percentile(verify_t, 50);
            const double t_analytic = percentile(analytic_t, 50);

            const std::string layer =
                strCat("layer.", graph.name, ".", ml.spec.name);
            const sim::RunResult &verified = runs.back();
            if (!verified.bitExact()) {
                violations->push_back(strCat(layer, ": not bit-exact"));
            }
            for (const sim::RunResult &r : runs) {
                if (r.stats.cycles != verified.stats.cycles ||
                    hwCounters(r.stats) != hwCounters(verified.stats)) {
                    violations->push_back(
                        strCat(layer, ": counters differ between repeats"));
                    break;
                }
            }
            out.push_back({layer + ".cycle_ms", t_cycle * 1e3, "ms"});
            out.push_back({layer + ".verify_ms", (t_verify - t_cycle) * 1e3,
                           "ms"});
            out.push_back({layer + ".analytic_ms", t_analytic * 1e3, "ms"});
            const std::array<int64_t, 8> counters = hwCounters(verified.stats);
            for (size_t k = 0; k < hw.size(); ++k) hw[k] += counters[k];
            cycle_s += t_cycle;
            verify_s += t_verify - t_cycle;
            analytic_s += t_analytic;
            cycles += verified.stats.cycles;
        }
    }
    out.push_back({"sim.ns_per_sim_cycle",
                   cycles > 0 ? cycle_s * 1e9 / double(cycles) : 0.0,
                   "ns/cycle"});
    out.push_back({"sim.verify_share",
                   cycle_s + verify_s > 0 ? verify_s / (cycle_s + verify_s)
                                          : 0.0,
                   "fraction"});
    out.push_back({"sim.analytic_speedup",
                   analytic_s > 0 ? cycle_s / analytic_s : 0.0, "x"});
    for (size_t k = 0; k < hw.size(); ++k) {
        out.push_back({kHwNames[k].name, double(hw[k]), kHwNames[k].unit});
    }
    return out;
}

double
poolCreateUs()
{
    std::vector<double> us;
    for (int i = 0; i < 1000; ++i) {
        const int64_t t0 = nowNs();
        {
            feather::serve::ThreadPool pool(1);
        }
        us.push_back(double(nowNs() - t0) * 1e-3);
    }
    return percentile(us, 50);
}

} // namespace bench
