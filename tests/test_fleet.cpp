/**
 * @file
 * Tests for heterogeneous fleet sharding: --fleet spec parsing, the
 * arch-zoo device registry behind it, placement policies in the virtual
 * scheduler, cross-device hand-off pricing (model::handoffCost), the
 * device-scoped plan-cache keys, per-device report rows, and the fleet
 * determinism contract (responses and all non-`_wall_us` report fields
 * bit-identical at any --jobs setting).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "baselines/arch_zoo.hpp"
#include "common/io.hpp"
#include "common/log.hpp"
#include "common/report_norm.hpp"
#include "daemon/daemon.hpp"
#include "daemon/request.hpp"
#include "daemon/serve_cli.hpp"
#include "daemon/vclock.hpp"
#include "model/scheduler.hpp"
#include "serve/plan_cache.hpp"
#include "golden_util.hpp"

namespace feather {
namespace daemon {
namespace {

// ---------------------------------------------------------------------------
// --fleet spec parsing
// ---------------------------------------------------------------------------

TEST(FleetSpec, ParsesInlineHeterogeneousFleet)
{
    FleetConfig fleet;
    std::string error;
    ASSERT_TRUE(parseFleetSpec("feather:16x16, feather:32x32,tpu-like",
                               &fleet, &error))
        << error;
    ASSERT_EQ(fleet.devices.size(), 3u);
    EXPECT_EQ(fleet.devices[0].name, "feather:16x16");
    EXPECT_EQ(fleet.devices[0].aw, 16);
    EXPECT_EQ(fleet.devices[0].ah, 16);
    EXPECT_EQ(fleet.devices[0].capability, 256);
    EXPECT_EQ(fleet.devices[1].name, "feather:32x32");
    EXPECT_EQ(fleet.devices[1].capability, 1024);
    EXPECT_EQ(fleet.devices[2].name, "tpu-like");
    EXPECT_GT(fleet.devices[2].capability, 0);
    EXPECT_EQ(fleet.spec, "feather:16x16,feather:32x32,tpu-like");
    EXPECT_TRUE(fleet.enabled());
}

TEST(FleetSpec, DuplicateEntriesGetOccurrenceSuffixes)
{
    FleetConfig fleet;
    std::string error;
    ASSERT_TRUE(parseFleetSpec("feather:8x8,feather:8x8,feather:8x8",
                               &fleet, &error))
        << error;
    ASSERT_EQ(fleet.devices.size(), 3u);
    EXPECT_EQ(fleet.devices[0].name, "feather:8x8");
    EXPECT_EQ(fleet.devices[1].name, "feather:8x8#2");
    EXPECT_EQ(fleet.devices[2].name, "feather:8x8#3");
}

TEST(FleetSpec, UnknownDeviceListsTheValidNames)
{
    FleetConfig fleet;
    std::string error;
    EXPECT_FALSE(parseFleetSpec("warp-core", &fleet, &error));
    EXPECT_NE(error.find("unknown device 'warp-core'"), std::string::npos)
        << error;
    // The error must teach the valid vocabulary: every zoo name plus the
    // parametric feather:<COLS>x<ROWS> form.
    for (const std::string &name : baselines::archZoo().names()) {
        EXPECT_NE(error.find(name), std::string::npos)
            << "error must list '" << name << "': " << error;
    }
    EXPECT_NE(error.find("feather:<COLS>x<ROWS>"), std::string::npos);
    EXPECT_EQ(error.find('\n'), std::string::npos) << "one-line error";
}

TEST(FleetSpec, RejectsMalformedShapes)
{
    FleetConfig fleet;
    std::string error;
    EXPECT_FALSE(parseFleetSpec("feather:0x8", &fleet, &error));
    EXPECT_NE(error.find("feather:0x8"), std::string::npos);
    EXPECT_FALSE(parseFleetSpec("feather:16", &fleet, &error));
    EXPECT_FALSE(parseFleetSpec("feather:16xten", &fleet, &error));
    // Columns are bounded by what the BIRRD cycle engine can run (64
    // router inputs); rows by the generic dim bound.
    EXPECT_FALSE(parseFleetSpec("feather:128x8", &fleet, &error));
    EXPECT_NE(error.find("COLS in 2..64"), std::string::npos) << error;
    EXPECT_FALSE(parseFleetSpec("feather:16x2048", &fleet, &error));
    // BIRRD needs a power-of-two column count.
    EXPECT_FALSE(parseFleetSpec("feather:12x8", &fleet, &error));
    EXPECT_NE(error.find("power-of-two"), std::string::npos) << error;
    EXPECT_FALSE(parseFleetSpec("", &fleet, &error));
    EXPECT_NE(error.find("no devices"), std::string::npos) << error;
}

// One column passes the power-of-two test but gives BIRRD a single input,
// so no request could run on it: the spec is rejected when it is parsed.
TEST(FleetSpec, RejectsOneColumnDevices)
{
    FleetConfig fleet;
    std::string error;
    EXPECT_FALSE(parseFleetSpec("feather:16x16,feather:1x4", &fleet, &error));
    EXPECT_NE(error.find("'feather:1x4'"), std::string::npos) << error;
    EXPECT_NE(error.find("COLS in 2..64"), std::string::npos) << error;
    EXPECT_TRUE(parseFleetSpec("feather:2x1", &fleet, &error)) << error;
}

TEST(FleetSpec, ReadsFleetFilesWithCommentsAndNewlines)
{
    const std::string path = "fleet_spec_test.txt";
    ASSERT_TRUE(writeFile(path, "# the lab fleet\nfeather:16x16\n"
                                "feather:32x32 # big one\n\n"
                                "eyeriss-like,tpu-like\n"));
    FleetConfig fleet;
    std::string error;
    ASSERT_TRUE(parseFleetSpec(path, &fleet, &error)) << error;
    ASSERT_EQ(fleet.devices.size(), 4u);
    EXPECT_EQ(fleet.devices[2].name, "eyeriss-like");
    EXPECT_EQ(fleet.devices[3].name, "tpu-like");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Arch-zoo registry (baselines::archZoo)
// ---------------------------------------------------------------------------

TEST(ArchZoo, LookupFindsEveryRegisteredName)
{
    const baselines::ArchZoo &zoo = baselines::archZoo();
    const std::vector<std::string> names = zoo.names();
    EXPECT_GE(names.size(), 11u);
    for (const std::string &name : names) {
        const baselines::ZooEntry *entry = zoo.lookup(name);
        ASSERT_NE(entry, nullptr) << name;
        EXPECT_EQ(entry->name, name);
        EXPECT_FALSE(entry->summary.empty()) << name;
        const ArchSpec spec = entry->make(WorkloadKind::Conv);
        EXPECT_GT(spec.numPes(), 0) << name;
        EXPECT_FALSE(spec.name.empty()) << name;
    }
    EXPECT_EQ(zoo.lookup("warp-core"), nullptr);
    EXPECT_EQ(zoo.lookup(""), nullptr);
}

TEST(ArchZoo, LegacyFactoriesAreThinWrappersOverTheRegistry)
{
    // The named free functions must produce exactly what the registry
    // produces — they are the same builders.
    const baselines::ArchZoo &zoo = baselines::archZoo();
    const ArchSpec via_fn = tpuLike(WorkloadKind::Conv);
    const ArchSpec via_zoo = zoo.lookup("tpu-like")->make(WorkloadKind::Conv);
    EXPECT_EQ(via_fn.name, via_zoo.name);
    EXPECT_EQ(via_fn.pe_rows, via_zoo.pe_rows);
    EXPECT_EQ(via_fn.pe_cols, via_zoo.pe_cols);
    EXPECT_EQ(via_fn.reorder, via_zoo.reorder);

    const ArchSpec feather_fn = featherArch(WorkloadKind::Conv);
    const ArchSpec feather_zoo =
        zoo.lookup("feather")->make(WorkloadKind::Conv);
    EXPECT_EQ(feather_fn.name, feather_zoo.name);
    EXPECT_EQ(feather_fn.pe_rows, feather_zoo.pe_rows);
}

// ---------------------------------------------------------------------------
// Hand-off pricing (model::handoffCost)
// ---------------------------------------------------------------------------

TEST(HandoffCost, SameDeviceIsFree)
{
    Extents e;
    e[Dim::C] = 4;
    e[Dim::H] = 8;
    e[Dim::W] = 8;
    EXPECT_EQ(model::handoffCost(true, Layout::parse("CHW_W4"),
                                 Layout::parse("HWC_C4"), e, 2,
                                 model::InterChipLink()),
              0);
}

TEST(HandoffCost, CrossDeviceIsReorderPlusTransfer)
{
    // 2x2x2 tensor, 8 elements. Reorder between these layouts costs 8
    // (see ReorderCost tests); the transfer term adds
    // ceil(bytes / bytes_per_cycle) on top.
    Extents e;
    e[Dim::C] = 2;
    e[Dim::H] = 2;
    e[Dim::W] = 2;
    const Layout src = Layout::parse("CHW_W2");
    const Layout dst = Layout::parse("HWC_C2");
    const int64_t reorder = model::reorderCost(src, dst, e);
    ASSERT_EQ(reorder, 8);

    model::InterChipLink link;
    link.bytes_per_cycle = 4;
    // 8 elements x 2 bytes = 16 bytes -> 4 transfer cycles.
    EXPECT_EQ(model::handoffCost(false, src, dst, e, 2, link), reorder + 4);
    // 1-byte elements: 8 bytes -> 2 cycles.
    EXPECT_EQ(model::handoffCost(false, src, dst, e, 1, link), reorder + 2);
    // A narrower link makes the same hand-off strictly dearer.
    link.bytes_per_cycle = 1;
    EXPECT_EQ(model::handoffCost(false, src, dst, e, 2, link), reorder + 16);
    // Identical layouts still pay the transfer term across chips.
    EXPECT_EQ(model::handoffCost(false, src, src, e, 1, link), 8);
}

// ---------------------------------------------------------------------------
// Device-scoped plan-cache keys
// ---------------------------------------------------------------------------

TEST(PlanCacheScope, ScopedKeyPartitionsTheKeySpace)
{
    LayerSpec layer;
    layer.name = "g";
    layer.type = OpType::Gemm;
    layer.gemm = {8, 8, 8};
    const std::string base = serve::PlanCache::key(
        sim::EngineMode::Cycle, sim::DataflowKind::Canonical, layer, 8, 8);
    const std::string dev = serve::PlanCache::key(
        sim::EngineMode::Cycle, sim::DataflowKind::Canonical, layer, 8, 8,
        "feather:32x32");
    EXPECT_NE(base, dev);
    EXPECT_EQ(dev, serve::PlanCache::scopedKey(base, "feather:32x32"));
    EXPECT_EQ(base, serve::PlanCache::scopedKey(base, ""));
    EXPECT_NE(serve::PlanCache::scopedKey(base, "a"),
              serve::PlanCache::scopedKey(base, "b"));
}

TEST(PlanCacheScope, ScopesMissIndependently)
{
    LayerSpec layer;
    layer.name = "g";
    layer.type = OpType::Gemm;
    layer.gemm = {8, 8, 8};
    serve::PlanCache cache;
    std::string error;
    ASSERT_TRUE(cache
                    .getOrPlan(sim::EngineMode::Cycle,
                               sim::DataflowKind::Canonical, layer, 8, 8,
                               &error, "dev-a")
                    .has_value())
        << error;
    EXPECT_EQ(cache.stats().misses, 1u);
    // Same point, different scope: a fresh miss, not a hit.
    ASSERT_TRUE(cache
                    .getOrPlan(sim::EngineMode::Cycle,
                               sim::DataflowKind::Canonical, layer, 8, 8,
                               &error, "dev-b")
                    .has_value());
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
    // Same point, same scope: now a hit.
    cache.getOrPlan(sim::EngineMode::Cycle, sim::DataflowKind::Canonical,
                    layer, 8, 8, &error, "dev-a");
    EXPECT_EQ(cache.stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// Placement policies in the DES
// ---------------------------------------------------------------------------

/** A DES fleet of (name, capability) devices; their shapes are unused. */
FleetConfig
desFleet(const std::vector<std::pair<std::string, int64_t>> &devices,
         PlacementPolicy place)
{
    FleetConfig fleet;
    for (const auto &[name, capability] : devices) {
        fleet.devices.push_back({name, 16, 16, capability});
    }
    fleet.place = place;
    return fleet;
}

FleetConfig
fleetConfig(PlacementPolicy place)
{
    return desFleet({{"small", 64}, {"big", 1024}, {"mid", 256}}, place);
}

FleetConfig
twoDeviceFleet()
{
    return desFleet({{"a", 1}, {"b", 1}}, PlacementPolicy::LeastLoaded);
}

/** DES harness for placed arrivals; records (index, device). */
struct PlacedHarness
{
    std::vector<int64_t> durations;
    std::vector<std::pair<size_t, int>> completions;

    explicit PlacedHarness(const FleetConfig &fleet)
        : vs(VirtualConfig(), fleet,
             [this](size_t i, int, int) { return durations[i]; },
             [this](const StageEvent &e) {
                 completions.push_back({e.index, e.device});
             })
    {
    }

    int
    arrive(int64_t at, int64_t duration, ArrivalHints hints)
    {
        durations.push_back(duration);
        if (hints.eligible.empty()) hints.eligible = {1, 1, 1};
        if (hints.handoff_vus.empty()) hints.handoff_vus = {0, 0, 0};
        std::string reason;
        int device = -1;
        EXPECT_TRUE(vs.arrive({durations.size() - 1, at, 1, {StagePlan{}},
                               hints},
                              &reason, &device))
            << reason;
        return device;
    }

    VirtualScheduler vs;
};

TEST(Placement, LeastLoadedBreaksTiesOnLowestIndex)
{
    PlacedHarness h(fleetConfig(PlacementPolicy::LeastLoaded));
    EXPECT_EQ(h.arrive(0, 100, {}), 0) << "all idle -> first device";
    EXPECT_EQ(h.arrive(1, 100, {}), 1) << "device 0 busy";
    EXPECT_EQ(h.arrive(2, 100, {}), 2);
    EXPECT_EQ(h.arrive(3, 100, {}), 0) << "all loaded 1 -> lowest index";
}

TEST(Placement, CapabilityWeighsLoadByDeviceCapability)
{
    PlacedHarness h(fleetConfig(PlacementPolicy::Capability));
    // (load+1)/capability: the 1024-PE device absorbs the first several
    // requests before the smaller devices become competitive.
    EXPECT_EQ(h.arrive(0, 1000, {}), 1);
    EXPECT_EQ(h.arrive(1, 1000, {}), 1);
    EXPECT_EQ(h.arrive(2, 1000, {}), 1);
    EXPECT_EQ(h.arrive(3, 1000, {}), 1);
    // big now has 4 in system: 5/1024 > 1/256 -> mid gets one.
    EXPECT_EQ(h.arrive(4, 1000, {}), 2);
}

TEST(Placement, AffinityFollowsTheScoreThenLoad)
{
    PlacedHarness h(fleetConfig(PlacementPolicy::Affinity));
    ArrivalHints warm;
    warm.affinity = {0, 0, 3};
    EXPECT_EQ(h.arrive(0, 100, warm), 2) << "max affinity wins";
    // Cold request: falls back to least-loaded (device 0 and 1 idle).
    EXPECT_EQ(h.arrive(1, 100, {}), 0);
    ArrivalHints tied;
    tied.affinity = {2, 2, 0};
    EXPECT_EQ(h.arrive(2, 100, tied), 1)
        << "affinity tie -> less-loaded of the tied devices";
}

TEST(Placement, IneligibleDevicesAreNeverChosen)
{
    PlacedHarness h(fleetConfig(PlacementPolicy::LeastLoaded));
    ArrivalHints only_mid;
    only_mid.eligible = {0, 0, 1};
    only_mid.handoff_vus = {0, 0, 0};
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(h.arrive(i, 50, only_mid), 2) << "request " << i;
    }
}

TEST(Placement, HandoffPremiumExtendsTheServiceWindow)
{
    std::vector<std::pair<int64_t, int64_t>> windows;
    VirtualScheduler vs(
        VirtualConfig(), twoDeviceFleet(),
        [](size_t, int, int) { return int64_t(10); },
        [&windows](const StageEvent &e) {
            windows.push_back({e.start_vus, e.finish_vus});
        });
    ArrivalHints free_hints;
    free_hints.eligible = {1, 1};
    free_hints.handoff_vus = {0, 0};
    ArrivalHints paid;
    paid.eligible = {1, 1};
    paid.handoff_vus = {7, 7};
    std::string reason;
    int device = -1;
    ASSERT_TRUE(vs.arrive({0, 0, 1, {StagePlan{}}, free_hints}, &reason,
                          &device));
    ASSERT_TRUE(
        vs.arrive({1, 0, 1, {StagePlan{}}, paid}, &reason, &device));
    vs.drain();
    ASSERT_EQ(windows.size(), 2u);
    EXPECT_EQ(windows[0].second - windows[0].first, 10);
    EXPECT_EQ(windows[1].second - windows[1].first, 17)
        << "duration + hand-off premium";
}

// ---------------------------------------------------------------------------
// Fleet daemon end to end
// ---------------------------------------------------------------------------

struct DaemonRun
{
    std::vector<std::string> responses;
    DaemonReport report;
    uint64_t failures = 0;
};

DaemonRun
runDaemon(const std::vector<Request> &requests, DaemonOptions opts)
{
    DaemonRun out;
    Daemon daemon(opts);
    for (const Request &req : requests) {
        daemon.enqueue(req, [&out](const std::string &line) {
            out.responses.push_back(line);
        });
    }
    daemon.closeIntake();
    out.report = daemon.run();
    out.failures = daemon.failures();
    return out;
}

/** A canned 4-client trace dense enough that queues form at clock 10. */
std::vector<Request>
cannedTrace(int n = 32)
{
    std::vector<Request> reqs;
    const char *scenarios[] = {"gemm", "quickstart_conv", "depthwise",
                               "gemm_skewed"};
    for (int i = 0; i < n; ++i) {
        Request req;
        req.id = strCat("r", i);
        req.client = strCat("c", i % 4);
        req.scenario = scenarios[i % 4];
        req.arrival_us = int64_t(i) * 40;
        reqs.push_back(req);
    }
    return reqs;
}

DaemonOptions
fleetOptions(const std::string &spec, PlacementPolicy place, int jobs = 1)
{
    DaemonOptions opts;
    opts.num_threads = jobs;
    opts.clock_mhz = 10; // cycles are expensive -> queues actually form
    std::string error;
    EXPECT_TRUE(parseFleetSpec(spec, &opts.fleet, &error)) << error;
    opts.fleet.place = place;
    return opts;
}

TEST(FleetDaemon, PerDeviceCountsAreDeterministicPerPolicy)
{
    // The canned trace must land on the same devices every run — and the
    // three policies must shard it differently.
    const std::vector<Request> reqs = cannedTrace();
    std::map<std::string, std::vector<uint64_t>> counts;
    for (const PlacementPolicy place :
         {PlacementPolicy::Affinity, PlacementPolicy::LeastLoaded,
          PlacementPolicy::Capability}) {
        const DaemonRun a = runDaemon(
            reqs, fleetOptions("feather:16x16,feather:32x32,tpu-like",
                               place, 1));
        const DaemonRun b = runDaemon(
            reqs, fleetOptions("feather:16x16,feather:32x32,tpu-like",
                               place, 8));
        ASSERT_EQ(a.report.devices.size(), 3u);
        uint64_t total = 0;
        std::vector<uint64_t> per_device;
        for (size_t d = 0; d < 3; ++d) {
            EXPECT_EQ(a.report.devices[d].requests,
                      b.report.devices[d].requests)
                << toString(place) << " device " << d;
            per_device.push_back(a.report.devices[d].requests);
            total += a.report.devices[d].requests;
        }
        EXPECT_EQ(total, a.report.accepted) << toString(place);
        counts[toString(place)] = per_device;
    }
    EXPECT_NE(counts["affinity"], counts["capability"]);
    EXPECT_NE(counts["least-loaded"], counts["capability"]);
}

TEST(FleetDaemon, PoliciesProduceMeasurablyDifferentTailLatency)
{
    // Acceptance criterion: at least one trace where the three policies
    // disagree on p95 virtual latency.
    const std::vector<Request> reqs = cannedTrace(48);
    std::set<int64_t> p95;
    for (const PlacementPolicy place :
         {PlacementPolicy::Affinity, PlacementPolicy::LeastLoaded,
          PlacementPolicy::Capability}) {
        const DaemonRun run = runDaemon(
            reqs, fleetOptions("feather:16x16,feather:32x32,tpu-like",
                               place));
        p95.insert(run.report.p95_vus);
    }
    EXPECT_EQ(p95.size(), 3u)
        << "the three placement policies must differ on p95";
}

TEST(FleetDaemon, ResponsesAndReportAreBitIdenticalAcrossJobs)
{
    const std::vector<Request> reqs = cannedTrace(40);
    const DaemonRun a = runDaemon(
        reqs, fleetOptions("feather:16x16,feather:32x32,tpu-like",
                           PlacementPolicy::Capability, 1));
    const DaemonRun b = runDaemon(
        reqs, fleetOptions("feather:16x16,feather:32x32,tpu-like",
                           PlacementPolicy::Capability, 8));
    ASSERT_EQ(a.responses.size(), b.responses.size());
    for (size_t i = 0; i < a.responses.size(); ++i) {
        EXPECT_EQ(zeroWallJson(a.responses[i]), zeroWallJson(b.responses[i]))
            << "response " << i;
    }
    EXPECT_EQ(zeroWallCsv(a.report.toCsv()), zeroWallCsv(b.report.toCsv()));
    EXPECT_EQ(zeroWallJson(a.report.toJson()),
              zeroWallJson(b.report.toJson()));
}

TEST(FleetDaemon, ResponsesCarryDeviceAndHandoffFields)
{
    const std::vector<Request> reqs = cannedTrace(16);
    const DaemonRun run = runDaemon(
        reqs, fleetOptions("feather:16x16,feather:32x32",
                           PlacementPolicy::LeastLoaded));
    ASSERT_FALSE(run.responses.empty());
    for (const std::string &line : run.responses) {
        if (line.find("\"status\":\"ok\"") == std::string::npos) continue;
        EXPECT_NE(line.find("\"device\":\""), std::string::npos) << line;
        EXPECT_NE(line.find("\"handoff_vus\":"), std::string::npos) << line;
    }
}

TEST(FleetDaemon, HandoffsArePricedOnlyAcrossDevices)
{
    // One client, sticky affinity: after the first placement every
    // request has warm affinity on its device, so no hand-offs happen.
    std::vector<Request> reqs;
    for (int i = 0; i < 12; ++i) {
        Request req;
        req.id = strCat("r", i);
        req.client = "solo";
        req.scenario = "gemm";
        req.arrival_us = int64_t(i) * 2000;
        reqs.push_back(req);
    }
    const DaemonRun sticky = runDaemon(
        reqs, fleetOptions("feather:16x16,feather:32x32",
                           PlacementPolicy::Affinity));
    uint64_t handoffs = 0;
    for (const DeviceRow &d : sticky.report.devices) {
        handoffs += d.handoffs;
    }
    EXPECT_EQ(handoffs, 0u) << "affinity keeps one idle client home";
    for (const std::string &line : sticky.responses) {
        EXPECT_EQ(line.find("\"handoff_vus\":0") == std::string::npos,
                  line.find("\"status\":\"ok\"") == std::string::npos)
            << line;
    }
}

TEST(FleetDaemon, HomogeneousRunsKeepTheClassicSchemas)
{
    // No --fleet: no device rows, no fleet/place keys — byte-compatible
    // with pre-fleet reports.
    std::vector<Request> reqs = cannedTrace(8);
    DaemonOptions opts;
    const DaemonRun run = runDaemon(reqs, opts);
    EXPECT_TRUE(run.report.devices.empty());
    EXPECT_EQ(run.report.toJson().find("\"devices\""), std::string::npos);
    EXPECT_EQ(run.report.toJson().find("\"fleet\""), std::string::npos);
    EXPECT_EQ(run.report.toCsv().find("\ndevice,"), std::string::npos);
    for (const std::string &line : run.responses) {
        EXPECT_EQ(line.find("\"device\""), std::string::npos) << line;
    }
}

TEST(FleetDaemon, SharedValidationErrorsStillNameTheCause)
{
    // Shape-independent validation (unknown workload, bad overrides) keeps
    // its legacy one-line errors in fleet mode, attributed to the client.
    Request req;
    req.id = "r0";
    req.client = "c0";
    req.scenario = "no_such_scenario";
    req.arrival_us = 0;
    const DaemonRun run = runDaemon(
        {req}, fleetOptions("feather:8x8", PlacementPolicy::LeastLoaded));
    EXPECT_EQ(run.report.errors, 1u);
    ASSERT_EQ(run.responses.size(), 1u);
    EXPECT_NE(run.responses[0].find("no_such_scenario"), std::string::npos)
        << run.responses[0];
    EXPECT_NE(run.responses[0].find("\"status\":\"ERROR\""),
              std::string::npos)
        << run.responses[0];
}

TEST(FleetDaemon, GraphNoDeviceFitsIsAnErrorWithoutPlanning)
{
    // xilinx-dpu-like has a 12-wide array, which BIRRD cannot route, so
    // no device of this fleet can take any layer of a graph: the request
    // is an ERROR naming the first layer, and no planning point is
    // counted against the client.
    Request req;
    req.id = "g0";
    req.client = "c0";
    req.model = "bert_mlp";
    req.arrival_us = 0;
    const DaemonRun run = runDaemon(
        {req}, fleetOptions("xilinx-dpu-like", PlacementPolicy::LeastLoaded));
    EXPECT_EQ(run.report.errors, 1u);
    EXPECT_EQ(run.report.accepted, 0u);
    ASSERT_EQ(run.responses.size(), 1u);
    EXPECT_NE(run.responses[0].find("\"status\":\"ERROR\""),
              std::string::npos)
        << run.responses[0];
    EXPECT_NE(run.responses[0].find(
                  "no fleet device fits fc_expand: no usable device shape"),
              std::string::npos)
        << run.responses[0];
    ASSERT_EQ(run.report.clients.size(), 1u);
    EXPECT_EQ(run.report.clients[0].errors, 1u);
    EXPECT_EQ(run.report.clients[0].cache_hits, 0u);
    EXPECT_EQ(run.report.clients[0].cache_misses, 0u);
}

TEST(FleetDaemon, WholeRequestSkipsDevicesBirrdCannotRun)
{
    // A whole request skips every device whose shape execution would
    // refuse (xilinx-dpu-like is 12x96): it plans nothing there and is
    // never placed there. With no device left it is refused at admission.
    Request req;
    req.id = "s0";
    req.client = "c0";
    req.scenario = "gemm";
    req.arrival_us = 0;
    const DaemonRun refused = runDaemon(
        {req}, fleetOptions("xilinx-dpu-like", PlacementPolicy::LeastLoaded));
    EXPECT_EQ(refused.report.errors, 1u);
    EXPECT_EQ(refused.report.accepted, 0u);
    ASSERT_EQ(refused.responses.size(), 1u);
    EXPECT_NE(refused.responses[0].find(
                  "no fleet device can run this request: array width "
                  "(--aw) must be a power of two >= 2, got 12"),
              std::string::npos)
        << refused.responses[0];
    EXPECT_EQ(refused.report.cache.entries, 0u);
    EXPECT_EQ(refused.report.cache.misses, 0u);
    ASSERT_EQ(refused.report.clients.size(), 1u);
    EXPECT_EQ(refused.report.clients[0].cache_misses, 0u);

    for (PlacementPolicy place :
         {PlacementPolicy::Affinity, PlacementPolicy::LeastLoaded,
          PlacementPolicy::Capability}) {
        const DaemonRun run = runDaemon(
            {req}, fleetOptions("xilinx-dpu-like,feather:16x16", place));
        EXPECT_EQ(run.report.errors, 0u);
        EXPECT_EQ(run.report.accepted, 1u);
        ASSERT_EQ(run.responses.size(), 1u);
        EXPECT_NE(run.responses[0].find("\"status\":\"ok\""),
                  std::string::npos)
            << run.responses[0];
        EXPECT_NE(run.responses[0].find("\"device\":\"feather:16x16\""),
                  std::string::npos)
            << run.responses[0];
    }
}

// ---------------------------------------------------------------------------
// Fleet CLI surface
// ---------------------------------------------------------------------------

TEST(FleetCli, ParsesFleetAndPlace)
{
    ServeCliConfig config;
    std::string error;
    ASSERT_TRUE(parseServeCli({"--stdin", "--fleet",
                               "feather:16x16,tpu-like", "--place",
                               "capability"},
                              &config, &error))
        << error;
    ASSERT_EQ(config.daemon.fleet.devices.size(), 2u);
    EXPECT_EQ(config.daemon.fleet.place, PlacementPolicy::Capability);
}

TEST(FleetCli, RejectsConflictsAndBadValuesNamingTheFlag)
{
    ServeCliConfig config;
    std::string error;
    EXPECT_FALSE(parseServeCli({"--stdin", "--fleet", "feather:16x16",
                                "--vworkers", "4"},
                               &config, &error));
    EXPECT_NE(error.find("--fleet"), std::string::npos) << error;
    EXPECT_NE(error.find("--vworkers"), std::string::npos) << error;

    EXPECT_FALSE(parseServeCli({"--stdin", "--place", "capability"},
                               &config, &error));
    EXPECT_NE(error.find("--place"), std::string::npos) << error;
    EXPECT_NE(error.find("--fleet"), std::string::npos) << error;

    EXPECT_FALSE(parseServeCli({"--stdin", "--fleet", "feather:16x16",
                                "--place", "random"},
                               &config, &error));
    EXPECT_NE(error.find("--place"), std::string::npos) << error;
    EXPECT_NE(error.find("least-loaded"), std::string::npos) << error;

    EXPECT_FALSE(parseServeCli({"--stdin", "--fleet", "warp-core"},
                               &config, &error));
    EXPECT_NE(error.find("unknown device 'warp-core'"), std::string::npos)
        << error;
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Fleet report schema (golden lock; see tests/golden/)
// ---------------------------------------------------------------------------

namespace schema {

DaemonReport
sampleFleetReport()
{
    return runDaemon(cannedTrace(12),
                     fleetOptions("feather:16x16,feather:32x32,tpu-like",
                                  PlacementPolicy::LeastLoaded))
        .report;
}

TEST(FleetReportSchema, DeviceCsvColumnsMatchGolden)
{
    const std::vector<std::string> golden =
        golden::readGoldenLines("daemon_fleet_csv_headers.golden");
    ASSERT_EQ(golden.size(), 2u)
        << "client-section header + device-section header";
    const std::string csv = sampleFleetReport().toCsv();
    std::vector<std::string> headers;
    size_t start = 0;
    bool at_header = true;
    for (size_t i = 0; i <= csv.size(); ++i) {
        if (i == csv.size() || csv[i] == '\n') {
            const std::string line = csv.substr(start, i - start);
            if (at_header && !line.empty()) headers.push_back(line);
            at_header = line.empty(); // header follows each blank line
            start = i + 1;
        }
    }
    EXPECT_EQ(headers, golden)
        << "fleet CSV sections are locked; update the golden file "
           "deliberately when extending the schema";
}

TEST(FleetReportSchema, JsonKeysMatchGolden)
{
    const std::vector<std::string> golden =
        golden::readGoldenLines("daemon_fleet_json_keys.golden");
    EXPECT_EQ(golden::jsonKeys(sampleFleetReport().toJson()), golden)
        << "fleet JSON keys are locked; update the golden file "
           "deliberately when extending the schema";
}

} // namespace schema

// ---------------------------------------------------------------------------
// Staged pipelines in the DES (graph-over-fleet requests)
// ---------------------------------------------------------------------------

/** DES harness for staged arrivals: fixed per-(index, stage) durations,
 *  records every stage window and the final completion. */
struct StagedHarness
{
    struct Window
    {
        size_t index;
        int stage;
        int device;
        int64_t start;
        int64_t finish;
    };

    std::vector<std::vector<int64_t>> stage_durations; ///< [index][stage]
    std::vector<Window> windows;
    std::vector<Window> completions; ///< stage = last stage index

    explicit StagedHarness(const FleetConfig &fleet)
        : vs(VirtualConfig(), fleet,
             [this](size_t i, int stage, int) {
                 return stage_durations[i][size_t(stage)];
             },
             [this](const StageEvent &e) {
                 windows.push_back({e.index, e.stage, e.device, e.start_vus,
                                    e.finish_vus});
                 if (e.last) {
                     completions.push_back({e.index, -1, e.device,
                                            e.first_start_vus, e.finish_vus});
                 }
             })
    {
    }

    void
    arrive(size_t index, int64_t at, std::vector<StagePlan> stages,
           std::vector<int64_t> durations)
    {
        ASSERT_EQ(index, stage_durations.size());
        stage_durations.push_back(std::move(durations));
        std::string reason;
        ASSERT_TRUE(vs.arrive({index, at, 1, std::move(stages)}, &reason))
            << reason;
    }

    VirtualScheduler vs;
};

TEST(StagedScheduler, StagesRunInOrderAndChargeTheHandoffPremium)
{
    StagedHarness h(twoDeviceFleet());
    h.arrive(0, 0, {{0, 0}, {1, 5}}, {10, 20});
    h.vs.drain();
    ASSERT_EQ(h.windows.size(), 2u);
    EXPECT_EQ(h.windows[0].device, 0);
    EXPECT_EQ(h.windows[0].start, 0);
    EXPECT_EQ(h.windows[0].finish, 10);
    EXPECT_EQ(h.windows[1].device, 1);
    EXPECT_EQ(h.windows[1].start, 10);
    EXPECT_EQ(h.windows[1].finish, 35) << "20 service + 5 hand-off";
    // One completion, spanning first start to last finish.
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].device, 1);
    EXPECT_EQ(h.completions[0].start, 0);
    EXPECT_EQ(h.completions[0].finish, 35);
}

TEST(StagedScheduler, IndependentPipelinesInterleaveInVirtualTime)
{
    // Two identical a->b pipelines: request 1's first stage overlaps
    // request 0's second stage, so the makespan is 3 windows, not 4.
    StagedHarness h(twoDeviceFleet());
    h.arrive(0, 0, {{0, 0}, {1, 0}}, {10, 10});
    h.arrive(1, 0, {{0, 0}, {1, 0}}, {10, 10});
    h.vs.drain();
    ASSERT_EQ(h.completions.size(), 2u);
    EXPECT_EQ(h.completions[0].finish, 20);
    EXPECT_EQ(h.completions[1].finish, 30)
        << "stage interleaving: 30, not the serialized 40";
    EXPECT_EQ(h.vs.lastFinish(), 30);
}

TEST(StagedScheduler, ContinuationStageQueuesBehindABusyDevice)
{
    StagedHarness h(twoDeviceFleet());
    // Request 0 occupies device b until t=100; request 1's second stage
    // must wait for it.
    h.arrive(0, 0, {{1, 0}}, {100});
    h.arrive(1, 0, {{0, 0}, {1, 0}}, {10, 10});
    h.vs.drain();
    ASSERT_EQ(h.windows.size(), 3u);
    const StagedHarness::Window &w = h.windows.back();
    EXPECT_EQ(w.index, 1u);
    EXPECT_EQ(w.stage, 1);
    EXPECT_EQ(w.start, 100) << "waited for device b to free";
    EXPECT_EQ(w.finish, 110);
}

TEST(StagedScheduler, ContinuationReclaimsItsOwnDeviceBeforeWaiters)
{
    // Both stages of request 0 are pinned to device a; request 1 waits
    // on a. The continuation starts immediately at its own stage-0
    // finish — the waiter must not double-claim the freed server.
    StagedHarness h(twoDeviceFleet());
    h.arrive(0, 0, {{0, 0}, {0, 0}}, {10, 10});
    h.arrive(1, 0, {{0, 0}}, {10});
    h.vs.drain();
    ASSERT_EQ(h.windows.size(), 3u);
    EXPECT_EQ(h.windows[1].index, 0u);
    EXPECT_EQ(h.windows[1].stage, 1);
    EXPECT_EQ(h.windows[1].start, 10);
    EXPECT_EQ(h.windows[2].index, 1u);
    EXPECT_EQ(h.windows[2].start, 20) << "waiter runs after the pipeline";
    EXPECT_EQ(h.vs.lastFinish(), 30);
}

// ---------------------------------------------------------------------------
// DES invariants over seeded random arrival streams
// ---------------------------------------------------------------------------

/** One seeded random stream through a VirtualScheduler, with every stage
 *  window recorded; check() asserts the DES invariants. */
struct DesProperty
{
    struct Req
    {
        int64_t arrival = 0;
        int priority = 0;
        bool accepted = false;
        int completions = 0;
        std::vector<int64_t> durations; ///< per stage, from the hook
        std::vector<StageEvent> stages; ///< finished stage windows
    };

    VirtualConfig cfg;
    FleetConfig fleet;
    std::vector<Req> reqs;
    int64_t makespan = 0;

    /** Feed @p n arrivals; @p staged_share of them (in percent) are
     *  pinned 1..3-stage pipelines, the rest are placed. */
    void
    run(std::mt19937 *rng, size_t n, int staged_share)
    {
        const size_t ndev = std::max<size_t>(1, fleet.devices.size());
        std::uniform_int_distribution<int64_t> gap(0, 12);
        std::uniform_int_distribution<int64_t> dur(0, 30);
        std::uniform_int_distribution<int> pct(0, 99);
        VirtualScheduler vs(
            cfg, fleet,
            [&](size_t i, int stage, int) {
                EXPECT_EQ(reqs[i].durations.size(), size_t(stage))
                    << "one duration call per started stage, in order";
                reqs[i].durations.push_back(dur(*rng));
                return reqs[i].durations.back();
            },
            [&](const StageEvent &e) {
                Req &r = reqs[e.index];
                r.stages.push_back(e);
                if (e.last) ++r.completions;
            });
        int64_t t = 0;
        for (size_t i = 0; i < n; ++i) {
            t += gap(*rng);
            Req r;
            r.arrival = t;
            r.priority = int((*rng)() % VirtualConfig::kPriorities);
            reqs.push_back(r);
            Arrival a(i, t, r.priority);
            if (pct(*rng) < staged_share) {
                a.stages.clear();
                const size_t k = 1 + (*rng)() % 3;
                for (size_t s = 0; s < k; ++s) {
                    a.stages.push_back({int((*rng)() % ndev),
                                        int64_t((*rng)() % 4)});
                }
            } else {
                a.hints.eligible.assign(ndev, 0);
                a.hints.eligible[(*rng)() % ndev] = 1;
                for (uint8_t &e : a.hints.eligible) e |= (*rng)() % 2;
                a.hints.affinity.resize(ndev);
                a.hints.handoff_vus.resize(ndev);
                for (size_t d = 0; d < ndev; ++d) {
                    a.hints.affinity[d] = int64_t((*rng)() % 3);
                    a.hints.handoff_vus[d] = int64_t((*rng)() % 3);
                }
            }
            std::string reason;
            reqs.back().accepted = vs.arrive(a, &reason);
            EXPECT_EQ(reqs.back().accepted, reason.empty()) << reason;
        }
        vs.drain();
        makespan = vs.lastFinish();
    }

    /** Asserts the invariants; counts rejections and queued starts so
     *  callers can tell the streams actually load the system. */
    void
    check(size_t *rejected_total, size_t *waited_total) const
    {
        const size_t ndev = std::max<size_t>(1, fleet.devices.size());
        std::vector<int64_t> busy(ndev, 0);
        size_t rejected = 0;
        size_t waited = 0;
        size_t accepted = 0;
        size_t completed = 0;
        // (device, priority) -> stage-0 starts in arrival order.
        std::map<std::pair<int, int>, std::vector<int64_t>> fifo;
        for (size_t i = 0; i < reqs.size(); ++i) {
            SCOPED_TRACE(i);
            const Req &r = reqs[i];
            accepted += r.accepted ? 1 : 0;
            completed += size_t(r.completions);
            if (!r.accepted) {
                EXPECT_TRUE(r.stages.empty()) << "a rejected request ran";
                ++rejected;
                continue;
            }
            ASSERT_EQ(r.completions, 1);
            ASSERT_EQ(r.stages.size(), r.durations.size());
            ASSERT_TRUE(r.stages.back().last);
            EXPECT_GE(r.stages.front().start_vus, r.arrival)
                << "no start before arrival";
            for (size_t k = 0; k < r.stages.size(); ++k) {
                const StageEvent &e = r.stages[k];
                EXPECT_EQ(e.stage, int(k));
                EXPECT_EQ(e.finish_vus - e.start_vus,
                          std::max<int64_t>(1, r.durations[k]) +
                              e.handoff_vus);
                EXPECT_EQ(e.first_start_vus, r.stages.front().start_vus);
                if (k > 0) {
                    EXPECT_GE(e.start_vus, r.stages[k - 1].finish_vus)
                        << "stage k+1 starts after stage k finishes";
                }
                busy[size_t(e.device)] += e.finish_vus - e.start_vus;
            }
            fifo[{r.stages.front().device, r.priority}].push_back(
                r.stages.front().start_vus);
            if (r.stages.front().start_vus > r.arrival) ++waited;
        }
        EXPECT_EQ(accepted, completed) << "accepted = completed";
        for (size_t d = 0; d < ndev; ++d) {
            // A fleet device is one server; the implicit one, vworkers.
            const int servers = fleet.enabled() ? 1 : cfg.vworkers;
            EXPECT_LE(busy[d], makespan * servers) << "device " << d;
        }
        for (const auto &[key, starts] : fifo) {
            EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()))
                << "FIFO within device " << key.first << " priority "
                << key.second;
        }
        *rejected_total += rejected;
        *waited_total += waited;
    }
};

TEST(DesProperty, OneDeviceWithManyServers)
{
    size_t rejected = 0;
    size_t waited = 0;
    for (uint32_t seed = 0; seed < 40; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937 rng(seed);
        DesProperty h;
        h.cfg.vworkers = 1 + int(rng() % 4);
        h.cfg.max_queue = int(rng() % 12) - 1;
        h.cfg.quota[2] = int64_t(rng() % 4) - 1;
        h.run(&rng, 80, 0);
        h.check(&rejected, &waited);
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(waited, 0u);
}

TEST(DesProperty, ThreeDeviceFleetWithPlacedAndStagedArrivals)
{
    const PlacementPolicy policies[] = {PlacementPolicy::LeastLoaded,
                                        PlacementPolicy::Capability,
                                        PlacementPolicy::Affinity};
    size_t rejected = 0;
    size_t waited = 0;
    for (uint32_t seed = 0; seed < 60; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937 rng(seed);
        DesProperty h;
        h.fleet = desFleet({{"a", 64}, {"b", 1024}, {"c", 256}},
                           policies[seed % 3]);
        h.cfg.max_queue = int(rng() % 16) - 1;
        h.cfg.quota[1] = int64_t(rng() % 6) - 1;
        h.run(&rng, 80, 40);
        h.check(&rejected, &waited);
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(waited, 0u);
}

// ---------------------------------------------------------------------------
// Graph-over-fleet requests end to end
// ---------------------------------------------------------------------------

/** One whole-graph request (mobilenet_slice splits on the CI fleet). */
Request
graphRequest(const std::string &id, const std::string &client, int64_t at)
{
    Request req;
    req.id = id;
    req.client = client;
    req.model = "mobilenet_slice";
    req.arrival_us = at;
    return req;
}

TEST(GraphOverFleet, StagedResponseCarriesTheDevicePath)
{
    const DaemonRun run = runDaemon(
        {graphRequest("g0", "c0", 0)},
        fleetOptions("feather:16x16,feather:32x32,tpu-like",
                     PlacementPolicy::LeastLoaded));
    ASSERT_EQ(run.responses.size(), 1u);
    const std::string &line = run.responses[0];
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
    // The fleet DP splits mobilenet_slice 32x32 -> 16x16, and the
    // response's device field names the whole pipeline.
    EXPECT_NE(line.find("\"device\":\"feather:32x32>feather:16x16\""),
              std::string::npos)
        << line;
    EXPECT_EQ(line.find("\"handoff_vus\":0"), std::string::npos)
        << "the cross-device edge must be priced: " << line;
}

TEST(GraphOverFleet, EachStageIsAccountedOnItsOwnDevice)
{
    const DaemonRun run = runDaemon(
        {graphRequest("g0", "c0", 0)},
        fleetOptions("feather:16x16,feather:32x32,tpu-like",
                     PlacementPolicy::LeastLoaded));
    ASSERT_EQ(run.report.devices.size(), 3u);
    std::map<std::string, DeviceRow> rows;
    for (const DeviceRow &row : run.report.devices) {
        rows[row.device] = row;
    }
    // One DES service window per stage: both pipeline devices served the
    // request, the third sat idle.
    EXPECT_EQ(rows["feather:32x32"].requests, 1u);
    EXPECT_EQ(rows["feather:16x16"].requests, 1u);
    EXPECT_EQ(rows["tpu-like"].requests, 0u);
    EXPECT_GT(rows["feather:32x32"].busy_vus, 0);
    EXPECT_GT(rows["feather:16x16"].busy_vus, 0);
    // The hand-off premium lands on the device the edge feeds.
    EXPECT_EQ(rows["feather:16x16"].handoffs, 1u);
    EXPECT_GT(rows["feather:16x16"].handoff_vus, 0);
    EXPECT_EQ(rows["feather:32x32"].handoffs, 0u);
}

TEST(GraphOverFleet, IndependentGraphRequestsInterleaveAcrossStages)
{
    const DaemonRun one = runDaemon(
        {graphRequest("g0", "c0", 0)},
        fleetOptions("feather:16x16,feather:32x32,tpu-like",
                     PlacementPolicy::LeastLoaded));
    const DaemonRun two = runDaemon(
        {graphRequest("g0", "c0", 0), graphRequest("g1", "c1", 1)},
        fleetOptions("feather:16x16,feather:32x32,tpu-like",
                     PlacementPolicy::LeastLoaded));
    ASSERT_EQ(one.report.errors, 0u);
    ASSERT_EQ(two.report.errors, 0u);
    const int64_t solo = one.report.makespan_vus;
    // Pipelining: g1's first stage runs while g0's second stage is in
    // flight, so two requests finish well before 2x one request.
    EXPECT_LT(two.report.makespan_vus, 2 * solo);
    EXPECT_GT(two.report.makespan_vus, solo);
}

TEST(GraphOverFleet, MixedTraceIsBitIdenticalAcrossJobs)
{
    // Graph requests riding a scenario-dense trace: every response and
    // every non-wall report field must be identical at any pool size.
    std::vector<Request> reqs = cannedTrace(16);
    reqs.insert(reqs.begin() + 4, graphRequest("g0", "c0", 170));
    reqs.insert(reqs.begin() + 9, graphRequest("g1", "c2", 330));
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].arrival_us = int64_t(i) * 40; // restore monotone arrivals
    }
    const DaemonRun a = runDaemon(
        reqs, fleetOptions("feather:16x16,feather:32x32,tpu-like",
                           PlacementPolicy::Affinity, 1));
    const DaemonRun b = runDaemon(
        reqs, fleetOptions("feather:16x16,feather:32x32,tpu-like",
                           PlacementPolicy::Affinity, 8));
    ASSERT_EQ(a.responses.size(), b.responses.size());
    for (size_t i = 0; i < a.responses.size(); ++i) {
        EXPECT_EQ(zeroWallJson(a.responses[i]),
                  zeroWallJson(b.responses[i]))
            << "response " << i;
    }
    EXPECT_EQ(zeroWallJson(a.report.toJson()),
              zeroWallJson(b.report.toJson()));
}

TEST(GraphOverFleet, SameClientStreamPaysTheMigrationHandoff)
{
    // c0's first graph request parks its stream on the pipeline's last
    // device; a later scenario request placed elsewhere pays the
    // client-stream hand-off, while a graph request re-entering the
    // pipeline pays it on its first stage.
    std::vector<Request> reqs = {graphRequest("g0", "c0", 0),
                                 graphRequest("g1", "c0", 1)};
    const DaemonRun run = runDaemon(
        reqs, fleetOptions("feather:16x16,feather:32x32,tpu-like",
                           PlacementPolicy::LeastLoaded));
    ASSERT_EQ(run.responses.size(), 2u);
    // g0: cross-device pipeline edge only. g1: that edge plus the
    // client-stream migration back to the pipeline head, so its total
    // hand-off premium is strictly larger.
    const auto premium = [](const std::string &line) {
        const size_t at = line.find("\"handoff_vus\":");
        EXPECT_NE(at, std::string::npos) << line;
        return std::stoll(line.substr(at + 14));
    };
    int64_t g0 = 0;
    int64_t g1 = 0;
    for (const std::string &line : run.responses) {
        if (line.find("\"id\":\"g0\"") != std::string::npos) {
            g0 = premium(line);
        }
        if (line.find("\"id\":\"g1\"") != std::string::npos) {
            g1 = premium(line);
        }
    }
    EXPECT_GT(g0, 0);
    EXPECT_GT(g1, g0);
}

} // namespace
} // namespace daemon
} // namespace feather
