/**
 * @file
 * Tests for the two-tier simulation engine (sim::EngineMode).
 *
 * The cycle tier is the bit-exact NoC replay the repo has always had: its
 * deterministic counters are locked, layer by layer, against
 * tests/golden/engine_cycle_counters.golden (captured from the
 * pre-refactor simulator), so hot-loop refactors cannot silently change
 * simulated behaviour.
 *
 * The analytic tier computes the same LayerStats closed-form from the
 * mapping plus one probed middle step. Its contract is weaker but
 * testable: total cycles within a 15% relative-error bound of the cycle
 * engine (measured worst case: 10.3%, exact on layers whose steps are
 * uniform), candidate *ranking* identical to the cycle engine's over the
 * sweep grid, and full determinism. Its exact counters are locked too
 * (engine_analytic_counters.golden), and so is every scenario layer run
 * standalone through runLayer in both tiers (run_layer_counters.golden).
 * Both tiers run the same per-step body (NestGeometry::step), so on a
 * one-step nest they must agree on every shared counter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "feather/nest_geometry.hpp"
#include "golden_util.hpp"
#include "model/graph.hpp"
#include "model/scheduler.hpp"
#include "serve/engine.hpp"
#include "serve/plan_cache.hpp"
#include "sim/engine_mode.hpp"
#include "sim/scenario.hpp"

namespace feather {
namespace sim {
namespace {

std::optional<ScenarioRun>
runWith(const ModelGraph &s, EngineMode mode, std::string *error,
        const std::string &dataflow = "", int aw = 0, int ah = 0)
{
    ScenarioOptions opts;
    opts.engine = mode;
    opts.dataflow = dataflow;
    opts.aw = aw;
    opts.ah = ah;
    return runScenario(s, opts, error);
}

// ---------------------------------------------------------------------------
// EngineMode parsing
// ---------------------------------------------------------------------------

TEST(EngineMode_, ParsesAndRoundTrips)
{
    ASSERT_TRUE(parseEngineMode("cycle").has_value());
    ASSERT_TRUE(parseEngineMode("analytic").has_value());
    EXPECT_EQ(*parseEngineMode("cycle"), EngineMode::Cycle);
    EXPECT_EQ(*parseEngineMode("analytic"), EngineMode::Analytic);
    EXPECT_FALSE(parseEngineMode("").has_value());
    EXPECT_FALSE(parseEngineMode("Cycle").has_value());
    EXPECT_FALSE(parseEngineMode("warp").has_value());
    for (const std::string &name : engineModeNames()) {
        const std::optional<EngineMode> mode = parseEngineMode(name);
        ASSERT_TRUE(mode.has_value()) << name;
        EXPECT_EQ(toString(*mode), name);
    }
}

// ---------------------------------------------------------------------------
// Deterministic counters locked against captured goldens
// ---------------------------------------------------------------------------

struct GoldenRow
{
    int64_t v[17]; ///< the numeric columns, in header order
};

/** Golden per-layer counter rows, keyed by each row's first
 *  @p key_columns cells (joined by ','); the next cell is the layer
 *  index, and rows are in layer order. */
std::map<std::string, std::vector<GoldenRow>>
readCounterGolden(const std::string &file, int key_columns = 1)
{
    const std::vector<std::string> lines = golden::readGoldenLines(file);
    std::map<std::string, std::vector<GoldenRow>> out;
    for (size_t i = 1; i < lines.size(); ++i) { // skip the header
        std::istringstream in(lines[i]);
        std::string key, cell;
        for (int k = 0; k < key_columns; ++k) {
            std::getline(in, cell, ',');
            key += (k > 0 ? "," : "") + cell;
        }
        std::getline(in, cell, ','); // layer index; rows are in order
        GoldenRow row{};
        for (int64_t &value : row.v) {
            std::getline(in, cell, ',');
            value = std::strtoll(cell.c_str(), nullptr, 10);
        }
        out[key].push_back(row);
    }
    return out;
}

/** Compare one layer's 17 golden columns (15 LayerStats counters, then
 *  the run's checked/mismatches). */
void
expectCounters(const std::string &where, const LayerStats &st,
               int64_t checked, int64_t mismatches, const GoldenRow &g)
{
    const int64_t got[17] = {
        st.cycles,          st.compute_cycles,
        st.weight_load_cycles, st.fill_cycles,
        st.read_stall_cycles,  st.write_stall_cycles,
        st.macs,            st.stab_reads,
        st.stab_writes,     st.strb_reads,
        st.ob_accumulates,  st.birrd_switch_hops,
        st.dram_words,      st.peak_ob_entries,
        st.weight_reload_events, checked,
        mismatches};
    for (int c = 0; c < 17; ++c) {
        EXPECT_EQ(got[c], g.v[c])
            << where << " counter column " << c
            << ": counters must stay bit-identical to the captured golden";
    }
}

/** Every scenario under @p mode against the per-layer rows of @p file. */
void
expectScenarioCounters(EngineMode mode, const std::string &file)
{
    const auto golden_rows = readCounterGolden(file);
    ASSERT_FALSE(golden_rows.empty());
    for (const ModelGraph &s : scenarios()) {
        const auto it = golden_rows.find(s.name);
        ASSERT_NE(it, golden_rows.end())
            << s.name << " is not in " << file
            << "; capture it when registering a scenario";
        std::string error;
        const auto run = runWith(s, mode, &error);
        ASSERT_TRUE(run.has_value()) << s.name << ": " << error;
        ASSERT_EQ(run->chain.layers.size(), it->second.size()) << s.name;
        for (size_t i = 0; i < run->chain.layers.size(); ++i) {
            expectCounters(s.name + " layer " + std::to_string(i),
                           run->chain.layers[i].stats, run->chain.checked,
                           run->chain.mismatches, it->second[i]);
        }
    }
}

TEST(CycleEngine_, CountersBitIdenticalToPreRefactorGolden)
{
    expectScenarioCounters(EngineMode::Cycle, "engine_cycle_counters.golden");
}

TEST(AnalyticEngine_, CountersBitIdenticalToGolden)
{
    expectScenarioCounters(EngineMode::Analytic,
                           "engine_analytic_counters.golden");
}

TEST(RunLayer_, StandaloneLayersBitIdenticalToGolden)
{
    // Every scenario layer on its own, on the concordant plan of its
    // dataflow family, in both tiers: locks runLayer per layer (scenarios
    // reach the simulator only through runChain).
    const auto golden_rows =
        readCounterGolden("run_layer_counters.golden", 2);
    ASSERT_FALSE(golden_rows.empty());
    for (const ModelGraph &s : scenarios()) {
        for (const EngineMode mode :
             {EngineMode::Cycle, EngineMode::Analytic}) {
            const std::string key = s.name + "," + toString(mode);
            const auto it = golden_rows.find(key);
            ASSERT_NE(it, golden_rows.end())
                << key << " is not in run_layer_counters.golden";
            ASSERT_EQ(s.layers.size(), it->second.size()) << key;
            for (size_t i = 0; i < s.layers.size(); ++i) {
                const ModelLayer &sl = s.layers[i];
                std::string error;
                const std::optional<LayerPlan> plan =
                    planLayer(*sl.dataflow, sl.spec, s.default_aw,
                              s.default_ah, &error, mode);
                ASSERT_TRUE(plan.has_value()) << key << ": " << error;
                RunOptions opts;
                opts.aw = s.default_aw;
                opts.ah = s.default_ah;
                opts.engine = mode;
                opts.mapping = plan->mapping;
                opts.in_layout = plan->in_layout;
                opts.out_layout = plan->out_layout;
                opts.quant.multiplier = sl.multiplier;
                const RunResult r = runLayer(sl.spec, opts);
                expectCounters(key + " layer " + std::to_string(i), r.stats,
                               r.checked, r.mismatches, it->second[i]);
            }
        }
    }
}

TEST(CycleEngine_, StabTraceBitIdenticalToGolden)
{
    // The whole StaB read/write trace of two catalogue layers, run
    // standalone under each dataflow family at two array sizes (the
    // plans whose rows share one iAct stream among them): one line per
    // run with the event counts and an FNV-1a hash of every event in
    // order. Locks the order and the (step, bank, addr) of each event,
    // not only the counts the counter goldens see.
    const auto golden = golden::readGoldenLines("cycle_trace.golden");
    std::vector<std::string> got;
    for (const auto &[model, layer] :
         {std::pair<std::string, std::string>{"resnet_block", "conv_3x3"},
          {"mobilenet_slice", "dw1_3x3"}}) {
        const ModelGraph *g = model::findModel(model);
        ASSERT_NE(g, nullptr) << model;
        const auto ml = std::find_if(
            g->layers.begin(), g->layers.end(),
            [&](const ModelLayer &l) { return l.spec.name == layer; });
        ASSERT_NE(ml, g->layers.end()) << layer;
        for (const char *df : {"ws", "cp", "wp"}) {
            for (const int a : {4, 8}) {
                std::string error;
                const std::optional<LayerPlan> plan = planLayer(
                    *parseDataflow(df), ml->spec, a, a, &error);
                ASSERT_TRUE(plan.has_value()) << layer << ": " << error;
                RunOptions opts;
                opts.aw = opts.ah = a;
                opts.mapping = plan->mapping;
                opts.in_layout = plan->in_layout;
                opts.out_layout = plan->out_layout;
                opts.quant.multiplier = ml->multiplier;
                // One event per StaB read and write, so a cap past their
                // sum captures the whole run.
                const RunResult counted = runLayer(ml->spec, opts);
                const int64_t events =
                    counted.stats.stab_reads + counted.stats.stab_writes;
                opts.trace_events = size_t(events) + 1;
                const RunResult r = runLayer(ml->spec, opts);
                ASSERT_TRUE(r.bitExact()) << layer;
                ASSERT_EQ(int64_t(r.trace.size()), events) << layer;

                const NestGeometry geo(ml->spec, plan->mapping);
                int64_t reads = 0;
                uint64_t hash = 1469598103934665603ull;
                const auto mix = [&](int64_t v) {
                    for (int byte = 0; byte < 8; ++byte) {
                        hash ^= uint64_t(v >> (8 * byte)) & 0xff;
                        hash *= 1099511628211ull;
                    }
                };
                for (const TraceEvent &ev : r.trace) {
                    reads += ev.kind == TraceEvent::Kind::StabRead;
                    mix(int64_t(ev.kind));
                    mix(ev.step);
                    mix(ev.bank);
                    mix(ev.addr);
                }
                std::ostringstream line;
                line << model << "," << layer << "," << df << "," << a
                     << "x" << a << "," << geo.rows_used << ","
                     << geo.row_variants << "," << events << "," << reads
                     << "," << events - reads << "," << std::hex << hash;
                got.push_back(line.str());
            }
        }
    }
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(std::vector<std::string>(golden.begin() + 1, golden.end()),
              got)
        << "the StaB trace must stay bit-identical to the captured golden";
}

// ---------------------------------------------------------------------------
// Analytic tier: error bound, rank preservation, determinism
// ---------------------------------------------------------------------------

TEST(AnalyticEngine_, WithinBoundAndPreservesRankingEverywhere)
{
    for (const ModelGraph &s : scenarios()) {
        // The candidate set a sweep would compare: every feasible
        // (dataflow x array) grid point.
        std::vector<std::string> keys;
        std::vector<int64_t> cycle_cycles, analytic_cycles;
        for (const char *df : {"", "ws", "cp", "wp"}) {
            for (int a : {4, 8, 16}) {
                std::string error;
                const auto cycle =
                    runWith(s, EngineMode::Cycle, &error, df, a, a);
                if (!cycle) continue; // infeasible grid point
                const auto analytic =
                    runWith(s, EngineMode::Analytic, &error, df, a, a);
                ASSERT_TRUE(analytic.has_value())
                    << s.name << "/" << df << "@" << a
                    << ": analytic must cover every point cycle covers: "
                    << error;
                const int64_t cc = cycle->chain.totalCycles();
                const int64_t ac = analytic->chain.totalCycles();
                ASSERT_GT(cc, 0);
                EXPECT_LE(std::fabs(double(ac - cc)) / double(cc),
                          kAnalyticBound)
                    << s.name << "/" << df << "@" << a << ": cycle " << cc
                    << " vs analytic " << ac;
                keys.push_back(std::string(df) + "@" + std::to_string(a));
                cycle_cycles.push_back(cc);
                analytic_cycles.push_back(ac);
            }
        }
        ASSERT_FALSE(keys.empty()) << s.name;
        // Sorting candidates by analytic cycles must give the same order
        // as sorting by measured cycles (stable, so exact ties keep
        // submission order): pruning on estimates never changes the
        // winner.
        std::vector<size_t> by_cycle(keys.size()), by_analytic(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
            by_cycle[i] = by_analytic[i] = i;
        }
        std::stable_sort(by_cycle.begin(), by_cycle.end(),
                         [&](size_t x, size_t y) {
                             return cycle_cycles[x] < cycle_cycles[y];
                         });
        std::stable_sort(by_analytic.begin(), by_analytic.end(),
                         [&](size_t x, size_t y) {
                             return analytic_cycles[x] < analytic_cycles[y];
                         });
        for (size_t i = 0; i < by_cycle.size(); ++i) {
            EXPECT_EQ(keys[by_cycle[i]], keys[by_analytic[i]])
                << s.name << ": analytic ranking diverges at position "
                << i;
        }
    }
}

TEST(AnalyticEngine_, SingleStepLayersMatchTheCycleTier)
{
    // A one-step nest leaves the analytic probe nothing to scale: its
    // middle step is the only step, so both tiers run the same step body
    // once and must agree on every counter. The OB high-water mark (the
    // probe counts distinct destinations, the cycle tier live entries)
    // and the arena use (cycle tier only) are the two tier-specific
    // fields.
    int cases = 0;
    for (const ModelGraph &s : scenarios()) {
        for (const ModelLayer &sl : s.layers) {
            for (const DataflowKind kind : model::kFamilies) {
                for (const int aw : {4, 8, 16}) {
                    for (const int ah : {4, 8, 16}) {
                        const std::optional<LayerPlan> plan =
                            planLayer(kind, sl.spec, aw, ah);
                        if (!plan ||
                            NestGeometry(sl.spec, plan->mapping)
                                    .total_steps != 1) {
                            continue;
                        }
                        ++cases;
                        RunOptions opts;
                        opts.aw = aw;
                        opts.ah = ah;
                        opts.mapping = plan->mapping;
                        opts.in_layout = plan->in_layout;
                        opts.out_layout = plan->out_layout;
                        opts.quant.multiplier = sl.multiplier;
                        opts.engine = EngineMode::Cycle;
                        LayerStats cycle = runLayer(sl.spec, opts).stats;
                        opts.engine = EngineMode::Analytic;
                        LayerStats analytic = runLayer(sl.spec, opts).stats;
                        cycle.peak_ob_entries = analytic.peak_ob_entries = 0;
                        cycle.arena_peak_bytes = 0;
                        EXPECT_EQ(cycle, analytic)
                            << s.name << "/" << sl.spec.name << " "
                            << toString(kind) << " " << aw << "x" << ah
                            << ": cycle " << cycle.toString()
                            << " vs analytic " << analytic.toString();
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 45) << "the one-step grid points moved";
}

TEST(AnalyticEngine_, DeterministicAndReplayFree)
{
    const ModelGraph *s = findScenario("resnet_block");
    ASSERT_NE(s, nullptr);
    std::string error;
    const auto a = runWith(*s, EngineMode::Analytic, &error);
    const auto b = runWith(*s, EngineMode::Analytic, &error);
    ASSERT_TRUE(a.has_value()) << error;
    ASSERT_TRUE(b.has_value()) << error;
    ASSERT_EQ(a->chain.layers.size(), b->chain.layers.size());
    for (size_t i = 0; i < a->chain.layers.size(); ++i) {
        const LayerStats &x = a->chain.layers[i].stats;
        const LayerStats &y = b->chain.layers[i].stats;
        EXPECT_EQ(x.cycles, y.cycles);
        EXPECT_EQ(x.macs, y.macs);
        EXPECT_EQ(x.stab_reads, y.stab_reads);
        EXPECT_EQ(x.birrd_switch_hops, y.birrd_switch_hops);
        // No replay happened: nothing was verified, no arena was used.
        EXPECT_EQ(x.arena_peak_bytes, 0);
    }
    EXPECT_EQ(a->chain.checked, 0)
        << "analytic runs estimate; they must not claim verification";
    EXPECT_EQ(a->chain.mismatches, 0);
}

TEST(CycleEngine_, ReportsArenaScratchUse)
{
    const ModelGraph *s = findScenario("quickstart_conv");
    ASSERT_NE(s, nullptr);
    std::string error;
    const auto run = runWith(*s, EngineMode::Cycle, &error);
    ASSERT_TRUE(run.has_value()) << error;
    EXPECT_GT(run->chain.layers[0].stats.arena_peak_bytes, 0)
        << "the cycle engine's hot loop runs out of the per-job arena";
}

// ---------------------------------------------------------------------------
// PlanCache: the engine mode is part of the key (regression)
// ---------------------------------------------------------------------------

TEST(PlanCacheEngineKey, ModesNeverShareEntries)
{
    serve::PlanCache cache;
    const LayerSpec conv = convLayer("c", 8, 8, 8, 3, 1, 1);
    const auto cycle = cache.getOrPlan(EngineMode::Cycle,
                                       DataflowKind::Canonical, conv, 4, 4);
    const auto analytic = cache.getOrPlan(
        EngineMode::Analytic, DataflowKind::Canonical, conv, 4, 4);
    ASSERT_TRUE(cycle.has_value());
    ASSERT_TRUE(analytic.has_value());
    // Regression: a shared entry would replay one job under the other's
    // engine. Same planning point, two modes = two misses, two entries.
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cycle->engine, EngineMode::Cycle);
    EXPECT_EQ(analytic->engine, EngineMode::Analytic);
    // The planning artifacts themselves are engine-independent.
    EXPECT_EQ(cycle->mapping.toString(), analytic->mapping.toString());
    EXPECT_EQ(cycle->in_layout.toString(), analytic->in_layout.toString());
}

// ---------------------------------------------------------------------------
// Serve integration: analytic sweeps report estimates
// ---------------------------------------------------------------------------

TEST(AnalyticSweep, ReportsEstimatesAndNeverFailsVerification)
{
    serve::BatchOptions opts;
    opts.engine = EngineMode::Analytic;
    serve::BatchEngine engine(opts);
    serve::SweepSpec sweep;
    sweep.scenario = "quickstart_conv";
    std::string error;
    const auto report = engine.sweep(sweep, nullptr, &error);
    ASSERT_TRUE(report.has_value()) << error;
    ASSERT_FALSE(report->jobs.empty());
    for (const serve::JobResult &r : report->jobs) {
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
        EXPECT_EQ(r.engine, EngineMode::Analytic) << r.name;
        EXPECT_EQ(r.status(), "est") << r.name;
        EXPECT_EQ(r.checked, 0) << r.name;
        EXPECT_GT(r.cycles, 0) << r.name;
    }
    EXPECT_EQ(report->failures(), 0u);
    EXPECT_TRUE(report->allOk());
    EXPECT_NE(report->toCsv().find(",analytic,"), std::string::npos);
    EXPECT_NE(report->toJson().find("\"engine_mode\":\"analytic\""),
              std::string::npos);
}

TEST(AnalyticSweep, JobPinOverridesBatchDefault)
{
    serve::BatchOptions opts;
    opts.engine = EngineMode::Analytic;
    serve::BatchEngine engine(opts);
    std::vector<serve::JobSpec> jobs(2);
    jobs[0].scenario = "gemm";
    jobs[0].engine = EngineMode::Cycle; // pinned: stays verified
    jobs[1].scenario = "gemm";
    const serve::BatchReport report = engine.run(jobs);
    ASSERT_EQ(report.jobs.size(), 2u);
    EXPECT_EQ(report.jobs[0].status(), "ok");
    EXPECT_TRUE(report.jobs[0].bitExact());
    EXPECT_EQ(report.jobs[1].status(), "est");
    EXPECT_EQ(report.jobs[1].checked, 0);
}

TEST(AnalyticSweep, BatchFileEngineKeyParsesAndRejectsUnknown)
{
    std::vector<serve::JobSpec> jobs;
    std::string error;
    ASSERT_TRUE(serve::parseBatchFile("gemm engine=analytic\n", &jobs,
                                      &error))
        << error;
    ASSERT_EQ(jobs.size(), 1u);
    ASSERT_TRUE(jobs[0].engine.has_value());
    EXPECT_EQ(*jobs[0].engine, EngineMode::Analytic);

    jobs.clear();
    EXPECT_FALSE(serve::parseBatchFile("gemm engine=warp\n", &jobs, &error));
    EXPECT_NE(error.find("unknown engine 'warp'"), std::string::npos);
    EXPECT_NE(error.find("cycle"), std::string::npos);
    EXPECT_NE(error.find("analytic"), std::string::npos);
}

} // namespace
} // namespace sim
} // namespace feather
