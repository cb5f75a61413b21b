/**
 * @file
 * Ablation / microbenchmark: serving-daemon throughput under continuous
 * batching (google-benchmark).
 *
 * Replays the deterministic load generator's pinned-arrival stream
 * through a fresh daemon per iteration and reports wall time per run at
 * two pool sizes. BM_DaemonGraphFleet replays a fixed whole-model stream
 * on the three-device fleet instead: each iteration's fresh plan cache
 * simulates every candidate of a graph once, on its first request, and
 * later requests for that graph pay only for their measured chains. The determinism contract makes the counters the
 * interesting part for CI: every virtual-time figure (accepted count,
 * latency percentiles, total cycles) must be identical across the two
 * pool sizes and across runs, so the perf gate can pin them exactly
 * while wall time is left to the artifacts.
 *
 * Gated deterministic counters:
 *   - requests      stream length that was served
 *   - accepted      requests the virtual system admitted
 *   - rejected      admission-control rejections (load-shedding suite)
 *   - p99_vus       virtual 99th-percentile latency
 *   - total_cycles  summed simulated cycles over accepted requests
 */

#include <benchmark/benchmark.h>

#include "daemon/daemon.hpp"
#include "daemon/load_gen.hpp"

using namespace feather;

namespace {

/** The fixed request stream both suites replay. */
std::vector<daemon::Request>
fixedLoad()
{
    daemon::LoadGenConfig cfg;
    cfg.qps = 1000;
    cfg.requests = 48;
    cfg.seed = 2024;
    return daemon::generateLoad(cfg);
}

/** Whole-model requests: the three built-in graphs x {per-layer,
 *  greedy}, four times over, one every 2 ms of virtual time. */
std::vector<daemon::Request>
fixedGraphLoad()
{
    std::vector<daemon::Request> requests;
    for (int copy = 0; copy < 4; ++copy) {
        for (const char *model :
             {"resnet_block", "mobilenet_slice", "bert_mlp"}) {
            for (const char *schedule : {"per-layer", "greedy"}) {
                daemon::Request req;
                req.client = "c" + std::to_string(requests.size() % 4);
                req.arrival_us = int64_t(requests.size()) * 2000;
                req.model = model;
                req.schedule = schedule;
                requests.push_back(std::move(req));
            }
        }
    }
    return requests;
}

void
runDaemonBench(benchmark::State &state, daemon::DaemonOptions opts,
               const std::vector<daemon::Request> &requests = fixedLoad())
{
    daemon::DaemonReport report;
    for (auto _ : state) {
        daemon::Daemon d(opts); // fresh plan cache every iteration
        for (const daemon::Request &req : requests) {
            d.enqueue(req, daemon::ResponseSink());
        }
        d.closeIntake();
        report = d.run();
        if (report.errors != 0) {
            state.SkipWithError("daemon run reported errors");
            return;
        }
        benchmark::DoNotOptimize(report.total_cycles);
    }
    state.counters["requests"] = double(report.requests);
    state.counters["accepted"] = double(report.accepted);
    state.counters["rejected"] = double(report.rejected);
    state.counters["p99_vus"] = double(report.p99_vus);
    state.counters["total_cycles"] = double(report.total_cycles);
}

/** Open-loop serve at --jobs N; counters must not depend on N. */
void
BM_DaemonServe(benchmark::State &state)
{
    daemon::DaemonOptions opts;
    opts.num_threads = int(state.range(0));
    opts.virt.vworkers = 2;
    runDaemonBench(state, opts);
}

/** A starved virtual system shedding most of the stream: admission
 *  control in the hot path, execution still speculative. */
void
BM_DaemonAdmission(benchmark::State &state)
{
    daemon::DaemonOptions opts;
    opts.num_threads = 4;
    opts.clock_mhz = 1; // 1 MHz virtual clock: service dwarfs arrivals
    opts.virt.max_queue = 2;
    runDaemonBench(state, opts);
}

/** Whole-model stream on the three-device fleet at --jobs N; counters
 *  must not depend on N. */
void
BM_DaemonGraphFleet(benchmark::State &state)
{
    daemon::DaemonOptions opts;
    opts.num_threads = int(state.range(0));
    opts.clock_mhz = 10;
    std::string error;
    if (!daemon::parseFleetSpec("feather:16x16,feather:32x32,tpu-like",
                                &opts.fleet, &error)) {
        state.SkipWithError(error.c_str());
        return;
    }
    runDaemonBench(state, opts, fixedGraphLoad());
}

BENCHMARK(BM_DaemonServe)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DaemonAdmission)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DaemonGraphFleet)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
