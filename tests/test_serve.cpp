/**
 * @file
 * Tests for the serve batch engine: thread-pool execution, per-stream RNG
 * derivation, plan-cache hit/miss accounting and its candidate-stats
 * memo, sweep expansion, batch-file
 * parsing, report export (CSV / single-line JSON), failure isolation, and
 * the engine's central determinism contract — a batch report is
 * bit-identical no matter how many worker threads ran it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/report_norm.hpp"
#include "common/rng.hpp"
#include "golden_util.hpp"
#include "serve/batch_cli.hpp"
#include "serve/engine.hpp"
#include "serve/job.hpp"
#include "serve/plan_cache.hpp"
#include "serve/report.hpp"
#include "serve/thread_pool.hpp"
#include "sim/cli.hpp"

namespace feather {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    for (int i = 0; i < 10; ++i) {
        pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker)
{
    ThreadPool pool(0);
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

// ---------------------------------------------------------------------------
// Per-job RNG streams
// ---------------------------------------------------------------------------

TEST(RngStreams, DeterministicAndDistinct)
{
    EXPECT_EQ(Rng::deriveStream(2024, 0), Rng::deriveStream(2024, 0));
    std::set<uint64_t> seeds;
    for (uint64_t i = 0; i < 64; ++i) seeds.insert(Rng::deriveStream(7, i));
    EXPECT_EQ(seeds.size(), 64u) << "adjacent streams must not collide";
    EXPECT_NE(Rng::deriveStream(1, 0), Rng::deriveStream(2, 0));

    Rng a = Rng::forStream(11, 3);
    Rng b = Rng::forStream(11, 3);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(a(), b());
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

TEST(PlanCache, CountsMissesOncePerKeyThenHits)
{
    PlanCache cache;
    const LayerSpec conv = sim::convLayer("c", 8, 8, 8, 3, 1, 1);
    EXPECT_TRUE(cache.getOrPlan(sim::EngineMode::Cycle,
                                sim::DataflowKind::Canonical, conv, 4, 4)
                    .has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);

    EXPECT_TRUE(cache.getOrPlan(sim::EngineMode::Cycle,
                                sim::DataflowKind::Canonical, conv, 4, 4)
                    .has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);

    // Different array size = different planning point.
    EXPECT_TRUE(cache.getOrPlan(sim::EngineMode::Cycle,
                                sim::DataflowKind::Canonical, conv, 8, 8)
                    .has_value());
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(PlanCache, KeysOnShapeNotName)
{
    PlanCache cache;
    const LayerSpec a = sim::convLayer("first_name", 8, 8, 8, 3, 1, 1);
    const LayerSpec b = sim::convLayer("other_name", 8, 8, 8, 3, 1, 1);
    EXPECT_TRUE(cache.getOrPlan(sim::EngineMode::Cycle,
                                sim::DataflowKind::Canonical, a, 4, 4)
                    .has_value());
    EXPECT_TRUE(cache.getOrPlan(sim::EngineMode::Cycle,
                                sim::DataflowKind::Canonical, b, 4, 4)
                    .has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCache, PlanMatchesUncachedPlanLayer)
{
    PlanCache cache;
    const LayerSpec conv = sim::convLayer("c", 16, 14, 16, 3, 1, 1);
    const auto cached =
        cache.getOrPlan(sim::EngineMode::Cycle,
                        sim::DataflowKind::ChannelParallel, conv, 8, 8);
    const auto direct =
        sim::planLayer(sim::DataflowKind::ChannelParallel, conv, 8, 8);
    ASSERT_TRUE(cached.has_value());
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(cached->mapping.toString(), direct->mapping.toString());
    EXPECT_EQ(cached->in_layout.toString(), direct->in_layout.toString());
    EXPECT_EQ(cached->out_layout.toString(), direct->out_layout.toString());
}

TEST(PlanCache, ConcurrentLookupsStayConsistent)
{
    PlanCache cache;
    const LayerSpec conv = sim::convLayer("c", 8, 8, 8, 3, 1, 1);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 50; ++i) {
                if (!cache.getOrPlan(sim::EngineMode::Cycle,
                                     sim::DataflowKind::Canonical, conv, 4,
                                     4)
                         .has_value()) {
                    failures.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    // Whole-lookup locking makes the counters exact, not approximate:
    // one miss for the unique key, hits for everything else.
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 8u * 50u - 1u);
}

TEST(PlanCache, ConcurrentMixedModeStressKeepsExactCounters)
{
    // The daemon leans on this harder than the batch engine does: many
    // intake threads racing runtime lookups across BOTH engine tiers and
    // several planning points at once. Whole-lookup locking must keep the
    // counters exact — misses = |unique keys| and hits = lookups - misses,
    // independent of interleaving — and the stress must be sanitizer-clean.
    PlanCache cache;
    const LayerSpec shapes[] = {
        sim::convLayer("a", 8, 8, 8, 3, 1, 1),
        sim::convLayer("b", 16, 8, 8, 3, 1, 1),
        sim::convLayer("c", 8, 8, 16, 1, 1, 0),
    };
    const sim::EngineMode modes[] = {sim::EngineMode::Cycle,
                                     sim::EngineMode::Analytic};
    const sim::DataflowKind kinds[] = {sim::DataflowKind::Canonical,
                                       sim::DataflowKind::ChannelParallel};
    constexpr int kThreads = 8;
    constexpr int kItersPerThread = 60;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kItersPerThread; ++i) {
                // Each thread walks the key space in a different order.
                const int n = (i + t) % (3 * 2 * 2);
                const auto plan = cache.getOrPlan(
                    modes[n % 2], kinds[(n / 2) % 2], shapes[n / 4], 8, 8);
                if (!plan.has_value()) failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    const PlanCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, 12u) << "3 shapes x 2 modes x 2 dataflows";
    EXPECT_EQ(stats.misses, 12u) << "exactly one miss per unique key";
    EXPECT_EQ(stats.hits + stats.misses,
              uint64_t(kThreads) * kItersPerThread);
    EXPECT_EQ(stats.hits, uint64_t(kThreads) * kItersPerThread - 12u);
}

TEST(PlanCache, MemoizesStatsBesideThePlan)
{
    PlanCache cache;
    const LayerSpec conv = sim::convLayer("c", 8, 8, 8, 3, 1, 1);
    const std::string key = PlanCache::key(
        sim::EngineMode::Cycle, sim::DataflowKind::Canonical, conv, 4, 4);
    LayerStats st;
    st.cycles = 42;
    st.macs = 7;
    cache.storeStats(key, st); // no plan to attach to: dropped
    EXPECT_FALSE(cache.findStats(key).has_value());
    EXPECT_EQ(cache.stats().entries, 0u);

    ASSERT_TRUE(cache.getOrPlan(sim::EngineMode::Cycle,
                                sim::DataflowKind::Canonical, conv, 4, 4)
                    .has_value());
    EXPECT_FALSE(cache.findStats(key).has_value());
    cache.storeStats(key, st);
    cache.storeStats(key, st); // a racing store with equal stats is fine
    const std::optional<LayerStats> memo = cache.findStats(key);
    ASSERT_TRUE(memo.has_value());
    EXPECT_EQ(*memo, st);

    // The memo never moves the golden plan-cache block.
    const PlanCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.memo_hits, 1u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.toJson(), R"({"hits":0,"misses":1,"entries":1})");
    EXPECT_EQ(stats.toString(),
              "plan cache: 0 hit(s), 1 miss(es), 1 entr(y/ies)");
}

TEST(PlanCacheDeathTest, DisagreeingStatsStoreAborts)
{
    PlanCache cache;
    const LayerSpec conv = sim::convLayer("c", 8, 8, 8, 3, 1, 1);
    ASSERT_TRUE(cache.getOrPlan(sim::EngineMode::Cycle,
                                sim::DataflowKind::Canonical, conv, 4, 4)
                    .has_value());
    const std::string key = PlanCache::key(
        sim::EngineMode::Cycle, sim::DataflowKind::Canonical, conv, 4, 4);
    LayerStats st;
    st.cycles = 42;
    cache.storeStats(key, st);
    LayerStats other = st;
    other.stab_reads = 1;
    EXPECT_DEATH(cache.storeStats(key, other), "disagree");
}

// ---------------------------------------------------------------------------
// Sweep expansion and batch files
// ---------------------------------------------------------------------------

TEST(Sweep, UnknownScenarioIsRejected)
{
    PlanCache cache;
    SweepSpec sweep;
    sweep.scenario = "no_such_scenario";
    std::string error;
    EXPECT_FALSE(expandSweep(sweep, cache, nullptr, &error).has_value());
    EXPECT_NE(error.find("no_such_scenario"), std::string::npos);
}

TEST(Sweep, UnknownDataflowErrorsEvenWhenEveryPointIsSkipped)
{
    PlanCache cache;
    SweepSpec sweep;
    sweep.scenario = "gemm";
    sweep.dataflows = {"typo"};
    sweep.arrays = {{3, 4}}; // shape-skipped before any planning
    std::string error;
    EXPECT_FALSE(expandSweep(sweep, cache, nullptr, &error).has_value());
    EXPECT_NE(error.find("typo"), std::string::npos);
}

TEST(Sweep, SkipsInvalidArrayShapes)
{
    PlanCache cache;
    SweepSpec sweep;
    sweep.scenario = "gemm";
    sweep.dataflows = {""};
    sweep.arrays = {{3, 4}, {4, 4}};
    std::vector<std::string> skipped;
    const auto jobs = expandSweep(sweep, cache, &skipped);
    ASSERT_TRUE(jobs.has_value());
    EXPECT_EQ(jobs->size(), 1u);
    ASSERT_EQ(skipped.size(), 1u);
    EXPECT_NE(skipped.front().find("3x4"), std::string::npos);
}

TEST(Sweep, DefaultGridCoversDataflowsAndArrays)
{
    PlanCache cache;
    SweepSpec sweep;
    sweep.scenario = "quickstart_conv";
    const auto jobs = expandSweep(sweep, cache, nullptr);
    ASSERT_TRUE(jobs.has_value());
    // 4 dataflows x (default 4x4 deduped against the standard grid of
    // 4x4/8x8/16x16) = 12 jobs.
    EXPECT_EQ(jobs->size(), 12u);
    std::set<std::string> names;
    for (const JobSpec &j : *jobs) names.insert(displayName(j));
    EXPECT_EQ(names.size(), jobs->size()) << "job names must be unique";
    EXPECT_TRUE(names.count("quickstart_conv/cp@8x8"));
}

TEST(BatchFile, ParsesJobsAndRejectsMalformedLines)
{
    std::vector<JobSpec> jobs;
    std::string error;
    const std::string text = "# a comment\n"
                             "\n"
                             "gemm dataflow=cp aw=8 ah=4 seed=7\n"
                             "resnet_block name=my_block layout=HWC_C8\n";
    ASSERT_TRUE(parseBatchFile(text, &jobs, &error)) << error;
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].scenario, "gemm");
    EXPECT_EQ(jobs[0].opts.dataflow, "cp");
    EXPECT_EQ(jobs[0].opts.aw, 8);
    EXPECT_EQ(jobs[0].opts.ah, 4);
    ASSERT_TRUE(jobs[0].explicit_seed.has_value());
    EXPECT_EQ(*jobs[0].explicit_seed, 7u);
    EXPECT_EQ(jobs[1].name, "my_block");
    EXPECT_EQ(jobs[1].opts.layout, "HWC_C8");

    jobs.clear();
    EXPECT_FALSE(parseBatchFile("gemm bogus\n", &jobs, &error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
    jobs.clear();
    EXPECT_FALSE(parseBatchFile("gemm frob=1\n", &jobs, &error));
    jobs.clear();
    EXPECT_FALSE(parseBatchFile("# only a comment\n", &jobs, &error));
}

// ---------------------------------------------------------------------------
// Engine: determinism, cache accounting, failure isolation
// ---------------------------------------------------------------------------

BatchReport
sweepReport(const std::string &scenario, int num_threads)
{
    BatchOptions opts;
    opts.num_threads = num_threads;
    BatchEngine engine(opts);
    SweepSpec sweep;
    sweep.scenario = scenario;
    std::string error;
    const std::optional<BatchReport> report =
        engine.sweep(sweep, nullptr, &error);
    EXPECT_TRUE(report.has_value()) << error;
    return report ? *report : BatchReport{};
}

TEST(Engine, ReportIsBitIdenticalAcrossThreadCounts)
{
    const BatchReport one = sweepReport("quickstart_conv", 1);
    const BatchReport eight = sweepReport("quickstart_conv", 8);
    EXPECT_EQ(zeroWallCsv(one.toCsv()), zeroWallCsv(eight.toCsv()));
    EXPECT_EQ(zeroWallJson(one.toJson()), zeroWallJson(eight.toJson()));
    EXPECT_TRUE(one.allOk());
}

TEST(Engine, ChainScenarioSweepIsDeterministicToo)
{
    // A multi-layer chain (per-layer dataflow + StaB ping-pong) through
    // the same contract.
    const BatchReport one = sweepReport("dw_separable", 1);
    const BatchReport six = sweepReport("dw_separable", 6);
    EXPECT_EQ(zeroWallCsv(one.toCsv()), zeroWallCsv(six.toCsv()));
    EXPECT_EQ(zeroWallJson(one.toJson()), zeroWallJson(six.toJson()));
    EXPECT_TRUE(one.allOk());
}

TEST(Engine, SweepJobsHitTheWarmedPlanCache)
{
    const BatchReport report = sweepReport("quickstart_conv", 4);
    EXPECT_TRUE(report.allOk());
    EXPECT_GT(report.cache.hits, 0u)
        << "sweep expansion warms the cache; the run must hit it";
    EXPECT_GT(report.cache.misses, 0u);
    // Every job planned through the cache: lookups >= one per job-layer.
    EXPECT_GE(report.cache.hits + report.cache.misses, report.jobs.size());
}

TEST(Engine, EveryJobRemainsBitExact)
{
    const BatchReport report = sweepReport("resnet_block", 4);
    ASSERT_FALSE(report.jobs.empty());
    for (const JobResult &r : report.jobs) {
        EXPECT_TRUE(r.bitExact()) << r.name << ": " << r.error;
        EXPECT_GT(r.checked, 0) << r.name;
        EXPECT_EQ(r.mismatches, 0) << r.name;
    }
}

TEST(Engine, BadJobIsIsolatedFromTheBatch)
{
    std::vector<JobSpec> jobs(3);
    jobs[0].scenario = "gemm";
    jobs[1].scenario = "no_such_scenario";
    jobs[2].scenario = "depthwise";
    BatchEngine engine;
    const BatchReport report = engine.run(jobs);
    ASSERT_EQ(report.jobs.size(), 3u);
    EXPECT_TRUE(report.jobs[0].bitExact());
    EXPECT_FALSE(report.jobs[1].ok);
    EXPECT_NE(report.jobs[1].error.find("no_such_scenario"),
              std::string::npos);
    EXPECT_EQ(report.jobs[1].status(), "ERROR");
    EXPECT_TRUE(report.jobs[2].bitExact());
    EXPECT_EQ(report.failures(), 1u);
    EXPECT_FALSE(report.allOk());
}

TEST(Engine, BadOverrideIsIsolatedToo)
{
    std::vector<JobSpec> jobs(2);
    jobs[0].scenario = "gemm";
    jobs[0].opts.dataflow = "zigzag"; // rejected by runScenario
    jobs[1].scenario = "gemm";
    BatchEngine engine;
    const BatchReport report = engine.run(jobs);
    EXPECT_FALSE(report.jobs[0].ok);
    EXPECT_NE(report.jobs[0].error.find("zigzag"), std::string::npos);
    EXPECT_TRUE(report.jobs[1].bitExact());
}

TEST(Engine, OutLayoutStabCannotHoldIsAnErrorRow)
{
    std::vector<JobSpec> jobs;
    std::string error;
    ASSERT_TRUE(parseBatchFile("conv3x3 out_layout=CHW_W1000000\nconv3x3\n",
                               &jobs, &error))
        << error;
    BatchEngine engine;
    const BatchReport report = engine.run(jobs);
    ASSERT_EQ(report.jobs.size(), 2u);
    EXPECT_EQ(report.jobs[0].status(), "ERROR");
    EXPECT_EQ(report.jobs[0].error,
              "conv3x3's oActs (next layer's [C,H,W] iActs) under layout "
              "'CHW_W1000000' need 28000000 words per StaB bank; the StaB "
              "holds 262144");
    EXPECT_TRUE(report.jobs[1].bitExact());
}

TEST(Engine, ExplicitSeedIsHonoured)
{
    JobSpec job;
    job.scenario = "gemm";
    job.explicit_seed = 42;
    BatchEngine engine;
    const BatchReport report = engine.run({job});
    ASSERT_EQ(report.jobs.size(), 1u);
    EXPECT_EQ(report.jobs[0].seed, 42u);
    EXPECT_TRUE(report.jobs[0].bitExact());
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

TEST(Report, CsvHasHeaderAndOneRowPerJob)
{
    const BatchReport report = sweepReport("gemm", 2);
    const std::string csv = report.toCsv();
    EXPECT_EQ(csv.rfind("job,scenario,dataflow,layout,aw,ah,seed,status,"
                        "layers,cycles,macs,utilization,rd_stalls,"
                        "wr_stalls,checked,mismatches,engine_mode,"
                        "sim_wall_us,arena_peak_bytes,error\n",
                        0),
              0u);
    size_t lines = 0;
    for (char c : csv) {
        if (c == '\n') ++lines;
    }
    EXPECT_EQ(lines, report.jobs.size() + 1);
    EXPECT_NE(csv.find(",ok,"), std::string::npos);
}

TEST(Report, JsonIsSingleLineWithSummary)
{
    const BatchReport report = sweepReport("gemm", 2);
    const std::string json = report.toJson();
    EXPECT_EQ(json.find('\n'), std::string::npos);
    EXPECT_EQ(json.rfind("{\"jobs\":[", 0), 0u);
    EXPECT_NE(json.find("\"summary\":{"), std::string::npos);
    EXPECT_NE(json.find("\"plan_cache\":{\"hits\":"), std::string::npos);
    EXPECT_NE(json.find("\"bit_exact\":true"), std::string::npos);
}

TEST(Report, ErrorsAreEscapedInBothFormats)
{
    BatchReport report;
    JobResult bad;
    bad.name = "bad,job";
    bad.scenario = "s";
    bad.error = "line1\nwith \"quotes\", and commas";
    report.jobs.push_back(bad);
    // CSV cells must stay comma/newline free (Table::toCsv contract);
    // JSON strings keep them, escaped. Both texts are locked byte for
    // byte: CLI goldens cannot hold an ERROR row (the CLI exits 1).
    EXPECT_EQ(report.toCsv(),
              "job,scenario,dataflow,layout,aw,ah,seed,status,layers,cycles,"
              "macs,utilization,rd_stalls,wr_stalls,checked,mismatches,"
              "engine_mode,sim_wall_us,arena_peak_bytes,error\n"
              "bad;job,s,,,0,0,0,ERROR,0,0,0,0.0000,0,0,0,0,cycle,0,0,"
              "line1;with \"quotes\"; and commas\n");
    EXPECT_EQ(report.toJson(),
              R"({"jobs":[{"job":"bad,job","scenario":"s","dataflow":"",)"
              R"("layout":"","aw":0,"ah":0,"seed":0,"status":"ERROR",)"
              R"("layers":0,"cycles":0,"macs":0,"utilization":0.0000,)"
              R"("rd_stalls":0,"wr_stalls":0,"checked":0,"mismatches":0,)"
              R"("engine_mode":"cycle","sim_wall_us":0,"arena_peak_bytes":0,)"
              R"("error":"line1\nwith \"quotes\", and commas"}],)"
              R"("summary":{"jobs":1,"failures":1,"bit_exact":false,)"
              R"("total_cycles":0,"total_macs":0,"base_seed":0,)"
              R"("plan_cache":{"hits":0,"misses":0,"entries":0}}})");
}

// ---------------------------------------------------------------------------
// Batch CLI
// ---------------------------------------------------------------------------

TEST(BatchCli, DetectsBatchInvocations)
{
    EXPECT_TRUE(isBatchInvocation({"--sweep", "gemm"}));
    EXPECT_TRUE(isBatchInvocation({"--batch", "jobs.txt"}));
    EXPECT_TRUE(isBatchInvocation({"--jobs", "4"}));
    EXPECT_FALSE(isBatchInvocation({"--workload", "gemm"}));
    EXPECT_FALSE(isBatchInvocation({"--list"}));
}

TEST(BatchCli, ParsesAndValidatesFlags)
{
    const BatchCliParse p =
        parseBatchCli({"--sweep", "gemm", "--jobs", "8", "--seed", "11",
                       "--report-csv", "a.csv", "--report-json", "b.json"});
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(p.opts.sweep, "gemm");
    EXPECT_EQ(p.opts.jobs, 8);
    EXPECT_EQ(p.opts.seed, 11u);
    EXPECT_EQ(p.opts.report_csv, "a.csv");
    EXPECT_EQ(p.opts.report_json, "b.json");

    EXPECT_FALSE(parseBatchCli({"--jobs", "4"}).ok());
    EXPECT_FALSE(parseBatchCli({"--jobs", "0", "--sweep", "gemm"}).ok());
    EXPECT_FALSE(parseBatchCli({"--jobs", "257", "--sweep", "gemm"}).ok());
    EXPECT_FALSE(
        parseBatchCli({"--sweep", "a", "--batch", "b.txt"}).ok());
    EXPECT_FALSE(parseBatchCli({"--sweep", "gemm", "--workload", "x"}).ok());
}

TEST(BatchCli, SweepRunsEndToEnd)
{
    std::vector<const char *> argv = {"feather_cli", "--sweep",
                                      "quickstart_conv", "--jobs", "2"};
    EXPECT_EQ(cliMain(int(argv.size()), argv.data(), sim::usage("")), 0);
}

TEST(BatchCli, DelegatesNonBatchInvocationsToSim)
{
    std::vector<const char *> argv = {"feather_cli", "--workload", "gemm"};
    EXPECT_EQ(cliMain(int(argv.size()), argv.data(), sim::usage("")), 0);
    std::vector<const char *> bad = {"feather_cli", "--workload",
                                     "no_such_scenario"};
    EXPECT_EQ(cliMain(int(bad.size()), bad.data(), sim::usage("")), 2);
}

TEST(BatchCli, UnknownSweepScenarioListsRegisteredNames)
{
    BatchEngine engine;
    SweepSpec sweep;
    sweep.scenario = "no_such_scenario";
    std::string error;
    EXPECT_FALSE(engine.sweep(sweep, nullptr, &error).has_value());
    EXPECT_NE(error.find("unknown scenario 'no_such_scenario'"),
              std::string::npos);
    for (const std::string &name : sim::scenarioNames()) {
        EXPECT_NE(error.find(name), std::string::npos) << error;
    }
}

// ---------------------------------------------------------------------------
// Batch report schema (golden lock; see tests/golden/)
// ---------------------------------------------------------------------------

namespace schema {

using golden::jsonKeys;
using golden::readGoldenLines;

BatchReport
sampleReport()
{
    JobSpec job;
    job.scenario = "gemm";
    BatchEngine engine;
    return engine.run({job});
}

TEST(BatchReportSchema, CsvColumnsMatchGolden)
{
    const std::vector<std::string> golden =
        readGoldenLines("batch_report_csv_header.golden");
    ASSERT_EQ(golden.size(), 1u);
    EXPECT_EQ(golden::csvHeader(sampleReport().toCsv()), golden[0])
        << "batch CSV columns are locked; update the golden file "
           "deliberately when extending the schema";
}

TEST(BatchReportSchema, JsonKeysMatchGolden)
{
    const std::vector<std::string> golden =
        readGoldenLines("batch_report_json_keys.golden");
    EXPECT_EQ(jsonKeys(sampleReport().toJson()), golden)
        << "batch JSON keys are locked; update the golden file "
           "deliberately when extending the schema";
}

} // namespace schema

} // namespace
} // namespace serve
} // namespace feather
