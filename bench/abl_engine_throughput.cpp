/**
 * @file
 * Ablation / microbenchmark: sweep throughput of the two engine tiers
 * (google-benchmark).
 *
 * Runs the same fixed (dataflow x array) sweep through serve::BatchEngine
 * under both EngineModes and reports jobs per wall second. The analytic
 * tier exists to make mapping-space sweeps cheap, so its *wall time* is a
 * product property here, not noise: CI gates BM_SweepAnalytic's time with
 * a generous threshold (see .github/workflows/perf.yml) on top of the
 * usual deterministic-counter gate.
 *
 * Gated deterministic counters:
 *   - jobs          sweep grid points that actually ran
 *   - total_cycles  summed simulated cycles over the report (bit-stable
 *                   in cycle mode, deterministic closed-form in analytic)
 * The speedup of analytic over cycle mode is visible in CI artifacts as
 * the ratio of the two suites' real_time.
 *
 * BM_CycleConvLayer times one layer on the cycle tier in the calling
 * thread, verified bit-exactly: resnet_block's conv_3x3 at its pinned
 * dataflow, whose rows unroll only output channels, so one iAct stream
 * feeds every row and NestGeometry::step replays row 0's gather. CI gates
 * its time too, so losing that replay fails the build. Its deterministic
 * counters are cycles, stab_reads and birrd_switch_hops.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "serve/engine.hpp"
#include "sim/scenario.hpp"

using namespace feather;

namespace {

/** The fixed sweep both tiers run: every dataflow family over three
 *  array sizes of a three-layer residual block. */
serve::SweepSpec
fixedSweep()
{
    serve::SweepSpec sweep;
    sweep.scenario = "resnet_block";
    sweep.dataflows = {"", "ws", "cp", "wp"};
    sweep.arrays = {{4, 4}, {8, 8}, {16, 16}};
    return sweep;
}

void
runSweepBench(benchmark::State &state, sim::EngineMode mode)
{
    serve::BatchOptions opts;
    opts.num_threads = 1; // single-threaded: measure the engine, not the pool
    opts.engine = mode;

    size_t jobs = 0;
    int64_t total_cycles = 0;
    for (auto _ : state) {
        serve::BatchEngine engine(opts); // fresh plan cache every iteration
        std::string error;
        const auto report = engine.sweep(fixedSweep(), nullptr, &error);
        if (!report || !report->allOk()) {
            state.SkipWithError(("sweep failed: " + error).c_str());
            return;
        }
        jobs = report->jobs.size();
        total_cycles = report->totalCycles();
        benchmark::DoNotOptimize(total_cycles);
    }
    // Deterministic counters for the CI perf gate; wall time is reported
    // by the framework (and gated for the analytic suite only).
    state.counters["jobs"] = double(jobs);
    state.counters["total_cycles"] = double(total_cycles);
}

void
BM_SweepCycle(benchmark::State &state)
{
    runSweepBench(state, sim::EngineMode::Cycle);
}

void
BM_SweepAnalytic(benchmark::State &state)
{
    runSweepBench(state, sim::EngineMode::Analytic);
}

/** resnet_block's conv_3x3 at its pin on a state.range(0) square array. */
void
BM_CycleConvLayer(benchmark::State &state)
{
    const auto &layers = sim::findScenario("resnet_block")->layers;
    const sim::ModelLayer &layer = *std::find_if(
        layers.begin(), layers.end(),
        [](const sim::ModelLayer &l) { return l.spec.name == "conv_3x3"; });
    const int side = int(state.range(0));
    std::string error;
    const auto plan =
        sim::planLayer(*layer.dataflow, layer.spec, side, side, &error);
    if (!plan) {
        state.SkipWithError(("plan failed: " + error).c_str());
        return;
    }
    sim::RunOptions opts;
    opts.aw = side;
    opts.ah = side;
    opts.mapping = plan->mapping;
    opts.in_layout = plan->in_layout;
    opts.out_layout = plan->out_layout;

    LayerStats stats;
    for (auto _ : state) {
        const sim::RunResult run = sim::runLayer(layer.spec, opts);
        if (!run.bitExact()) {
            state.SkipWithError("conv_3x3 is not bit-exact");
            return;
        }
        stats = run.stats;
        benchmark::DoNotOptimize(stats);
    }
    state.counters["cycles"] = double(stats.cycles);
    state.counters["stab_reads"] = double(stats.stab_reads);
    state.counters["birrd_switch_hops"] = double(stats.birrd_switch_hops);
}

BENCHMARK(BM_SweepCycle)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepAnalytic)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CycleConvLayer)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
