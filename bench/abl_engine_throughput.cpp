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
 * the ratio of the two suites' real_time. Each iteration gets a fresh
 * engine, so planning starts cold every time; the BIRRD waves do not:
 * CompiledWaves (noc/router.hpp) is one table per process, so from the
 * second iteration on every wave the sweep replays is already compiled.
 *
 * BM_CycleConvLayer times one layer on the cycle tier in the calling
 * thread, verified bit-exactly: resnet_block's conv_3x3 at its pinned
 * dataflow, whose rows unroll only output channels, so one iAct stream
 * feeds every row and NestGeometry::step hands later rows row 0's gather
 * (sink.reuse) instead of gathering again. CI gates
 * its time too, so losing that reuse fails the build. Its deterministic
 * counters are cycles, stab_reads and birrd_switch_hops.
 *
 * BM_CycleGemmLayer (gemm_chain's fc1) and BM_CycleDepthwiseLayer
 * (mobilenet_bneck's dw_3x3) run the same way on the other path: their
 * pinned mappings unroll iAct dims over rows (row_variants > 1), so every
 * row gathers through the compiled axis tables. They report the same
 * counters; their times are tracked in the CI artifacts but not gated.
 *
 * BM_ReferenceConv times the verification side of that layer: the
 * reference ops (tensor/reference_ops.hpp) that every measured cycle-tier
 * run is checked against, on the same seeded tensors. Its counter is the
 * layer's macs; its time is tracked in the CI artifacts but not gated.
 *
 * BM_CycleCountsLayer prices the same layer the way the model scheduler
 * prices a cycle-tier candidate: cycleLayerStats walks every step with a
 * sink that moves no data. Its counters are BM_CycleConvLayer's (the walk
 * is the data run's step loop); its time, tracked but not gated, is the
 * control's share of that layer.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "feather/accelerator.hpp"
#include "feather/nest_geometry.hpp"
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

/** Layer @p name of scenario @p scenario. */
const sim::ModelLayer &
scenarioLayer(const char *scenario, const char *name)
{
    const auto &layers = sim::findScenario(scenario)->layers;
    return *std::find_if(
        layers.begin(), layers.end(),
        [name](const sim::ModelLayer &l) { return l.spec.name == name; });
}

/** resnet_block's conv_3x3. */
const sim::ModelLayer &
conv3x3()
{
    return scenarioLayer("resnet_block", "conv_3x3");
}

/** The deterministic counters of a layer benchmark. */
void
reportLayerCounters(benchmark::State &state, const LayerStats &stats)
{
    state.counters["cycles"] = double(stats.cycles);
    state.counters["stab_reads"] = double(stats.stab_reads);
    state.counters["birrd_switch_hops"] = double(stats.birrd_switch_hops);
}

/** @p layer at its pin on a state.range(0) square array, on the cycle
 *  tier. @p shared_stream: whether the pinned mapping's rows share one
 *  iAct stream (row_variants == 1) or each gather their own. */
void
runCycleLayer(benchmark::State &state, const sim::ModelLayer &layer,
              bool shared_stream)
{
    const int side = int(state.range(0));
    std::string error;
    const auto plan =
        sim::planLayer(*layer.dataflow, layer.spec, side, side, &error);
    if (!plan) {
        state.SkipWithError(("plan failed: " + error).c_str());
        return;
    }
    const NestGeometry geo(layer.spec, plan->mapping);
    if ((geo.row_variants == 1) != shared_stream) {
        state.SkipWithError("the pinned mapping takes the other gather path");
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
            state.SkipWithError(
                (layer.spec.name + " is not bit-exact").c_str());
            return;
        }
        stats = run.stats;
        benchmark::DoNotOptimize(stats);
    }
    reportLayerCounters(state, stats);
}

/** resnet_block's conv_3x3 at its pin on a state.range(0) square array. */
void
BM_CycleConvLayer(benchmark::State &state)
{
    runCycleLayer(state, conv3x3(), true);
}

/** gemm_chain's fc1 (M8 N16 K32): rows unroll M, which the iActs read. */
void
BM_CycleGemmLayer(benchmark::State &state)
{
    runCycleLayer(state, scenarioLayer("gemm_chain", "fc1"), false);
}

/** mobilenet_bneck's dw_3x3 (C32 14x14): rows unroll an iAct dim. */
void
BM_CycleDepthwiseLayer(benchmark::State &state)
{
    runCycleLayer(state, scenarioLayer("mobilenet_bneck", "dw_3x3"), false);
}

/** The reference output of resnet_block's conv_3x3 on the seeded inputs
 *  a one-step chain of it draws. */
void
BM_ReferenceConv(benchmark::State &state)
{
    const sim::ModelLayer &layer = conv3x3();
    sim::ChainStep step;
    step.layer = layer.spec;
    step.quant.multiplier = layer.multiplier;
    const sim::ChainInputs in =
        sim::drawChainInputs({step}, sim::RunOptions().seed);
    for (auto _ : state) {
        Int8Tensor out = sim::referenceOutput(layer.spec, in.iacts,
                                              in.weights[0], step.quant);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["macs"] = double(layer.spec.macs());
}

/** resnet_block's conv_3x3 at its pin on a state.range(0) square array,
 *  priced by the count walk. */
void
BM_CycleCountsLayer(benchmark::State &state)
{
    const sim::ModelLayer &layer = conv3x3();
    FeatherConfig cfg;
    cfg.aw = cfg.ah = int(state.range(0));
    std::string error;
    const auto plan =
        sim::planLayer(*layer.dataflow, layer.spec, cfg.aw, cfg.ah, &error);
    if (!plan) {
        state.SkipWithError(("plan failed: " + error).c_str());
        return;
    }
    LayerStats stats;
    for (auto _ : state) {
        stats = cycleLayerStats(layer.spec, plan->mapping, plan->in_layout,
                                plan->out_layout, cfg);
        benchmark::DoNotOptimize(stats);
    }
    reportLayerCounters(state, stats);
}

// The engine's pool thread runs the sweep, so CPU time is the process's,
// not the calling thread's (which only sets up the pool and waits).
BENCHMARK(BM_SweepCycle)->MeasureProcessCPUTime()->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_SweepAnalytic)->MeasureProcessCPUTime()->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_CycleConvLayer)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CycleGemmLayer)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CycleDepthwiseLayer)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReferenceConv)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CycleCountsLayer)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
