/**
 * @file
 * Ablation / microbenchmark: placement policies over a heterogeneous
 * fleet (google-benchmark).
 *
 * Replays one deterministic pinned-arrival stream through a fresh
 * fleet-mode daemon per iteration — three devices (feather:16x16,
 * feather:32x32, tpu-like) at a 10 MHz virtual clock so queues actually
 * form — once per placement policy. Wall time per run is the reported
 * figure; the deterministic virtual counters are the CI contract:
 *
 * Gated deterministic counters (per policy):
 *   - accepted        requests the virtual system admitted
 *   - p95_vus         virtual 95th-percentile latency; the policies must
 *                     disagree here or the ablation measures nothing
 *   - dev<i>_requests completions placed on fleet device i
 *   - handoffs        placements that moved a client across devices
 */

#include <benchmark/benchmark.h>

#include "daemon/daemon.hpp"
#include "daemon/load_gen.hpp"

using namespace feather;

namespace {

/** The fixed request stream every policy replays. */
std::vector<daemon::Request>
fixedLoad()
{
    daemon::LoadGenConfig cfg;
    cfg.qps = 20000;
    cfg.requests = 64;
    cfg.seed = 2024;
    return daemon::generateLoad(cfg);
}

/** Fleet serve with one policy; counters must not depend on --jobs. */
void
BM_FleetPlacement(benchmark::State &state, daemon::PlacementPolicy place)
{
    daemon::DaemonOptions opts;
    opts.num_threads = 4;
    opts.clock_mhz = 10; // slow virtual clock: placement under pressure
    std::string error;
    if (!daemon::parseFleetSpec("feather:16x16,feather:32x32,tpu-like",
                                &opts.fleet, &error)) {
        state.SkipWithError(error.c_str());
        return;
    }
    opts.fleet.place = place;

    const std::vector<daemon::Request> requests = fixedLoad();
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
    state.counters["accepted"] = double(report.accepted);
    state.counters["p95_vus"] = double(report.p95_vus);
    uint64_t handoffs = 0;
    for (size_t i = 0; i < report.devices.size(); ++i) {
        state.counters["dev" + std::to_string(i) + "_requests"] =
            double(report.devices[i].requests);
        handoffs += report.devices[i].handoffs;
    }
    state.counters["handoffs"] = double(handoffs);
}

BENCHMARK_CAPTURE(BM_FleetPlacement, affinity,
                  daemon::PlacementPolicy::Affinity)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FleetPlacement, least_loaded,
                  daemon::PlacementPolicy::LeastLoaded)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FleetPlacement, capability,
                  daemon::PlacementPolicy::Capability)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
