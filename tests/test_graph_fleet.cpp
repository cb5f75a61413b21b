/**
 * @file
 * Whole-graph pipeline scheduling over a heterogeneous fleet, locked
 * down three ways:
 *
 *   - differential: a 1-device fleet reproduces the single-device
 *     per-layer schedule bit-exactly (same DP cost, same per-layer
 *     (dataflow, layout) picks, same measured cycle counters);
 *   - property: on random small graphs x small fleets, the DP cost
 *     equals the brute-force optimum over every (device, candidate)
 *     assignment, and is never beaten by greedy or by any pinned
 *     single-device placement (100+ seed-derived cases);
 *   - edge pricing: model::handoffCost is zero on-device, scales with
 *     tensor bytes, and charges only the link term on concordant
 *     hand-offs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "model/fleet.hpp"
#include "model/graph.hpp"
#include "model/scheduler.hpp"

namespace feather {
namespace model {
namespace {

/** The fleet CI smokes with: two FEATHER shapes plus a zoo design. */
constexpr const char *kCiFleet = "feather:16x16,feather:32x32,tpu-like";

FleetSpec
fleetOf(const std::string &spec)
{
    FleetSpec fleet;
    std::string error;
    EXPECT_TRUE(parseFleetSpec(spec, &fleet, &error)) << error;
    return fleet;
}

SchedulerOptions
fleetOptions(const std::string &spec, sim::EngineMode engine, int jobs = 1)
{
    SchedulerOptions opts;
    opts.fleet = fleetOf(spec);
    opts.engine = engine;
    opts.num_threads = jobs;
    return opts;
}

SchedulePolicy
policyOf(const std::string &name)
{
    std::string error;
    const std::optional<SchedulePolicy> policy = parseSchedule(name, &error);
    EXPECT_TRUE(policy.has_value()) << error;
    return *policy;
}

/** Extents with the given HWC box (enough for the pricing tests). */
Extents
hwcExtents(int64_t h, int64_t w, int64_t c)
{
    Extents e;
    e[Dim::H] = h;
    e[Dim::W] = w;
    e[Dim::C] = c;
    return e;
}

// ---------------------------------------------------------------------------
// handoffCost edge pricing
// ---------------------------------------------------------------------------

TEST(HandoffCost, SameDeviceHandoffIsFree)
{
    const InterChipLink link;
    const Layout src = Layout::parse("HWC_C16");
    const Layout dst = Layout::parse("CHW_W8");
    // Even a discordant hand-off is free on-device: the StaB ping-pong
    // plus BIRRD write path is what the per-layer scheduler exploits.
    EXPECT_EQ(handoffCost(true, src, dst, hwcExtents(8, 8, 16), 1, link),
              0);
}

TEST(HandoffCost, ConcordantHandoffChargesOnlyTheLinkTerm)
{
    const InterChipLink link; // 16 bytes/cycle
    const Layout layout = Layout::parse("HWC_C16");
    const Extents extents = hwcExtents(8, 8, 16); // 1024 elements
    EXPECT_EQ(reorderCost(layout, layout, extents), 0);
    // 1024 bytes over a 16 B/cycle link = 64 transfer cycles, nothing
    // else.
    EXPECT_EQ(handoffCost(false, layout, layout, extents, 1, link), 64);
    // Wider elements transfer proportionally more bytes.
    EXPECT_EQ(handoffCost(false, layout, layout, extents, 4, link), 256);
}

TEST(HandoffCost, ScalesWithTensorBytes)
{
    const InterChipLink link;
    const Layout layout = Layout::parse("HWC_C16");
    const int64_t small =
        handoffCost(false, layout, layout, hwcExtents(4, 4, 16), 1, link);
    const int64_t big =
        handoffCost(false, layout, layout, hwcExtents(16, 16, 16), 1, link);
    EXPECT_GT(small, 0);
    EXPECT_EQ(big, 16 * small); // 16x the elements, 16x the cycles
}

TEST(HandoffCost, DiscordantHandoffAddsTheReorderTerm)
{
    const InterChipLink link;
    const Layout src = Layout::parse("HWC_C16");
    const Layout dst = Layout::parse("CHW_W8");
    const Extents extents = hwcExtents(8, 8, 16);
    const int64_t reorder = reorderCost(src, dst, extents);
    EXPECT_GT(reorder, 0);
    EXPECT_EQ(handoffCost(false, src, dst, extents, 1, link),
              reorder +
                  handoffCost(false, src, src, extents, 1, link));
}

// ---------------------------------------------------------------------------
// Differential: 1-device fleet == single-device scheduler
// ---------------------------------------------------------------------------

TEST(GraphFleetDifferential, OneDeviceFleetReproducesSingleDeviceSchedule)
{
    for (const ModelGraph &graph : builtinModels()) {
        SCOPED_TRACE(graph.name);
        std::string error;

        Scheduler single{SchedulerOptions{}};
        const std::optional<Evaluation> seval =
            single.evaluate(graph, &error);
        ASSERT_TRUE(seval.has_value()) << error;
        const std::optional<ScheduleResult> sres = single.schedule(
            graph, *seval, policyOf("per-layer"), &error);
        ASSERT_TRUE(sres.has_value()) << error;

        const std::string spec = strCat("feather:", graph.default_aw, "x",
                                        graph.default_ah);
        Scheduler fleet{fleetOptions(spec, sim::EngineMode::Cycle)};
        const std::optional<Evaluation> feval =
            fleet.evaluate(graph, &error);
        ASSERT_TRUE(feval.has_value()) << error;
        const std::optional<ScheduleResult> fres = fleet.schedule(
            graph, *feval, policyOf("per-layer"), &error);
        ASSERT_TRUE(fres.has_value()) << error;

        // Same device-free DP cost and same measured ground truth.
        EXPECT_EQ(fres->est_total, sres->est_total);
        EXPECT_EQ(fres->cycles, sres->cycles);
        EXPECT_EQ(fres->macs, sres->macs);
        EXPECT_EQ(fres->checked, sres->checked);
        EXPECT_EQ(fres->mismatches, sres->mismatches);
        EXPECT_TRUE(fres->bitExact());
        EXPECT_EQ(fres->handoffs, 0);
        EXPECT_EQ(fres->handoff_cycles, 0);
        EXPECT_EQ(fres->fleet, spec);

        // Same chosen (dataflow, layout) pair and measured counters per
        // layer; every layer placed on the single device.
        ASSERT_EQ(fres->layers.size(), sres->layers.size());
        for (size_t i = 0; i < fres->layers.size(); ++i) {
            SCOPED_TRACE(fres->layers[i].layer);
            const LayerChoice &f = fres->layers[i];
            const LayerChoice &s = sres->layers[i];
            EXPECT_EQ(f.dataflow, s.dataflow);
            EXPECT_TRUE(f.plan.in_layout == s.plan.in_layout);
            EXPECT_TRUE(f.plan.out_layout == s.plan.out_layout);
            EXPECT_EQ(f.plan.mapping.toString(), s.plan.mapping.toString());
            EXPECT_EQ(f.est_cycles, s.est_cycles);
            EXPECT_EQ(f.reorder_cycles, s.reorder_cycles);
            EXPECT_EQ(f.cycles, s.cycles);
            EXPECT_EQ(f.macs, s.macs);
            EXPECT_EQ(f.read_stalls, s.read_stalls);
            EXPECT_EQ(f.write_stalls, s.write_stalls);
            EXPECT_EQ(f.device, 0);
            EXPECT_EQ(f.device_name, spec);
        }
    }
}

// ---------------------------------------------------------------------------
// Property: DP cost is the brute-force optimum over (device, candidate)
// ---------------------------------------------------------------------------

/** Random ≤4-layer pointwise/depthwise chain (bindings always valid). */
std::string
randomGraphText(std::mt19937 *rng)
{
    const int channels[] = {4, 8, 16};
    const int hw = 4 + 2 * int((*rng)() % 2); // 4 or 6
    const int layers = 2 + int((*rng)() % 3); // 2..4
    int c = channels[(*rng)() % 3];
    std::string text = "model prop_case\n";
    for (int i = 0; i < layers; ++i) {
        if ((*rng)() % 2 == 0) {
            const int m = channels[(*rng)() % 3];
            text += strCat("pointwise name=l", i, " c=", c, " hw=", hw,
                           " m=", m, "\n");
            c = m;
        } else {
            text += strCat("depthwise name=l", i, " c=", c, " hw=", hw,
                           " rs=3 pad=1\n");
        }
    }
    return text;
}

/** Small fleet derived from the seed: 1..3 devices, rotated pool. */
std::string
randomFleetSpec(std::mt19937 *rng)
{
    const char *pool[] = {"feather:4x4", "feather:8x8", "feather:16x4"};
    const size_t first = (*rng)() % 3;
    const size_t count = 1 + (*rng)() % 3;
    std::string spec;
    for (size_t i = 0; i < count; ++i) {
        if (i > 0) spec += ",";
        spec += pool[(first + i) % 3];
    }
    return spec;
}

/** Brute-force minimum of sum(est) + edge prices over every candidate
 *  assignment; restricted to one device when @p device >= 0. Returns
 *  int64 max when no full assignment exists under the restriction. */
int64_t
bruteForceCost(const Evaluation &eval, int device)
{
    constexpr int64_t kInf = std::numeric_limits<int64_t>::max();
    std::vector<int64_t> prev; // best cost ending at layer i, candidate c
    for (size_t i = 0; i < eval.layers.size(); ++i) {
        const std::vector<Candidate> &cands = eval.layers[i];
        std::vector<int64_t> cur(cands.size(), kInf);
        for (size_t c = 0; c < cands.size(); ++c) {
            if (device >= 0 && cands[c].device != device) continue;
            if (i == 0) {
                cur[c] = cands[c].est_cycles;
                continue;
            }
            for (size_t p = 0; p < prev.size(); ++p) {
                if (prev[p] == kInf) continue;
                const int64_t cost = prev[p] + cands[c].est_cycles +
                                     eval.edges[i][p][c];
                cur[c] = std::min(cur[c], cost);
            }
        }
        prev = std::move(cur);
    }
    int64_t best = kInf;
    for (const int64_t c : prev) best = std::min(best, c);
    return best;
}

/** Exhaustive (non-DP) enumeration for cross-checking bruteForceCost on
 *  the same evaluation — walks every full assignment explicitly. */
int64_t
exhaustiveCost(const Evaluation &eval)
{
    constexpr int64_t kInf = std::numeric_limits<int64_t>::max();
    int64_t best = kInf;
    std::vector<size_t> pick(eval.layers.size(), 0);
    const auto walk = [&](const auto &self, size_t i, int64_t cost) -> void {
        if (i == eval.layers.size()) {
            best = std::min(best, cost);
            return;
        }
        for (size_t c = 0; c < eval.layers[i].size(); ++c) {
            int64_t edge = 0;
            if (i > 0) edge = eval.edges[i][pick[i - 1]][c];
            pick[i] = c;
            self(self, i + 1,
                 cost + eval.layers[i][c].est_cycles + edge);
        }
    };
    walk(walk, 0, 0);
    return best;
}

TEST(GraphFleetProperty, DpCostIsOptimalOverDeviceCandidateAssignments)
{
    constexpr int64_t kInf = std::numeric_limits<int64_t>::max();
    constexpr int kCases = 120;
    int ran = 0;
    int split_schedules = 0;
    for (int seed = 0; seed < kCases + 40 && ran < kCases; ++seed) {
        std::mt19937 rng(uint32_t(7919 * seed + 17));
        const std::string text = randomGraphText(&rng);
        const std::string spec = randomFleetSpec(&rng);
        SCOPED_TRACE(strCat("seed ", seed, " fleet ", spec, "\n", text));

        std::string error;
        const std::optional<ModelGraph> graph =
            parseModelText(text, "prop_case", &error);
        ASSERT_TRUE(graph.has_value()) << error;

        // Analytic evaluation keeps 120 cases fast; the DP objective is
        // tier-independent given the candidate table.
        Scheduler sched{fleetOptions(spec, sim::EngineMode::Analytic)};
        const std::optional<Evaluation> eval =
            sched.evaluate(*graph, &error);
        if (!eval) continue; // no device fits some layer: not a DP case
        ++ran;

        const std::optional<ScheduleResult> dp = sched.schedule(
            *graph, *eval, policyOf("per-layer"), &error);
        ASSERT_TRUE(dp.has_value()) << error;
        const int64_t best = bruteForceCost(*eval, -1);
        ASSERT_LT(best, kInf);
        EXPECT_EQ(dp->est_total, best);
        // Cross-check the checker itself on every full enumeration.
        EXPECT_EQ(exhaustiveCost(*eval), best);

        const std::optional<ScheduleResult> greedy = sched.schedule(
            *graph, *eval, policyOf("greedy"), &error);
        ASSERT_TRUE(greedy.has_value()) << error;
        EXPECT_GE(greedy->est_total, dp->est_total);

        for (const FleetDevice &dev : sched.options().fleet.devices) {
            const int d =
                sched.options().fleet.deviceIndex(dev.name);
            const int64_t pinned_best = bruteForceCost(*eval, d);
            // Any single-device placement is a restriction of the DP's
            // search space.
            if (pinned_best != kInf) {
                EXPECT_LE(dp->est_total, pinned_best);
            }
            // Spot-check the Pinned policy against the restricted
            // brute force (full schedule runs are the slow part).
            if (seed % 10 == 0) {
                const std::optional<ScheduleResult> pinned =
                    sched.schedule(*graph, *eval,
                                   policyOf("pinned:" + dev.name), &error);
                if (pinned_best == kInf) {
                    EXPECT_FALSE(pinned.has_value());
                } else {
                    ASSERT_TRUE(pinned.has_value()) << error;
                    EXPECT_EQ(pinned->est_total, pinned_best);
                }
            }
        }
        if (dp->handoffs > 0) ++split_schedules;
    }
    EXPECT_GE(ran, kCases);
    // The generator must exercise actual cross-device schedules, not
    // only degenerate single-device optima.
    EXPECT_GT(split_schedules, 0);
}

// ---------------------------------------------------------------------------
// Rank preservation, determinism, and the CI-fleet win
// ---------------------------------------------------------------------------

TEST(GraphFleet, AnalyticTierPicksTheSameDeviceAssignmentAsCycle)
{
    // The analytic tier may estimate different absolute cycles, but on
    // the CI fleet it must rank devices the same way the cycle tier
    // does — otherwise --engine analytic fleet sweeps would mislead.
    for (const char *model : {"mobilenet_slice", "bert_mlp"}) {
        SCOPED_TRACE(model);
        const ModelGraph *graph = findModel(model);
        ASSERT_NE(graph, nullptr);
        std::vector<std::vector<int>> devices;
        for (const sim::EngineMode mode :
             {sim::EngineMode::Cycle, sim::EngineMode::Analytic}) {
            std::string error;
            Scheduler sched{fleetOptions(kCiFleet, mode)};
            const std::optional<Evaluation> eval =
                sched.evaluate(*graph, &error);
            ASSERT_TRUE(eval.has_value()) << error;
            const std::optional<ScheduleResult> res = sched.schedule(
                *graph, *eval, policyOf("per-layer"), &error);
            ASSERT_TRUE(res.has_value()) << error;
            std::vector<int> seq;
            for (const LayerChoice &l : res->layers) {
                seq.push_back(l.device);
            }
            devices.push_back(std::move(seq));
        }
        EXPECT_EQ(devices[0], devices[1]);
    }
}

TEST(GraphFleet, DpBeatsEveryPinnedPlacementOnTheCiFleet)
{
    // The acceptance bar: splitting mobilenet_slice across the CI fleet
    // is strictly cheaper than the best single-device placement.
    const ModelGraph *graph = findModel("mobilenet_slice");
    ASSERT_NE(graph, nullptr);
    std::string error;
    Scheduler sched{fleetOptions(kCiFleet, sim::EngineMode::Cycle)};
    const std::optional<ScheduleComparison> cmp =
        sched.compare(*graph, policyOf("per-layer"), &error);
    ASSERT_TRUE(cmp.has_value()) << error;

    const ScheduleResult &dp = cmp->primary();
    EXPECT_GE(dp.handoffs, 1); // it actually pipelines across devices
    EXPECT_GT(dp.search_nodes, 0);
    int pinned_seen = 0;
    for (const ScheduleResult &r : cmp->schedules) {
        if (r.schedule.rfind("pinned:", 0) != 0) continue;
        ++pinned_seen;
        EXPECT_LT(dp.est_total, r.est_total) << r.schedule;
    }
    EXPECT_EQ(pinned_seen, 3); // one ranking row per fleet device
}

TEST(GraphFleet, UtilizationCountsThePesEachLayerRanOn)
{
    // Utilization is MACs over the PE-cycles of the devices the layers
    // ran on, so it stays a fraction for every compared schedule however
    // a fleet of mixed array shapes splits or pins the graph.
    for (const ModelGraph &graph : builtinModels()) {
        std::string error;
        Scheduler sched{
            fleetOptions(kCiFleet, sim::EngineMode::Analytic, 2)};
        const std::optional<ScheduleComparison> cmp =
            sched.compare(graph, policyOf("per-layer"), &error);
        ASSERT_TRUE(cmp.has_value()) << graph.name << ": " << error;
        for (const ScheduleResult &r : cmp->schedules) {
            EXPECT_GT(r.utilization(), 0.0) << graph.name << " " << r.schedule;
            EXPECT_LE(r.utilization(), 1.0) << graph.name << " " << r.schedule;
        }
    }
}

TEST(GraphFleet, FleetScheduleIsBitIdenticalAcrossJobs)
{
    const ModelGraph *graph = findModel("mobilenet_slice");
    ASSERT_NE(graph, nullptr);
    std::vector<ScheduleResult> runs;
    for (const int jobs : {1, 8}) {
        std::string error;
        Scheduler sched{
            fleetOptions(kCiFleet, sim::EngineMode::Cycle, jobs)};
        const std::optional<Evaluation> eval =
            sched.evaluate(*graph, &error);
        ASSERT_TRUE(eval.has_value()) << error;
        const std::optional<ScheduleResult> res = sched.schedule(
            *graph, *eval, policyOf("per-layer"), &error);
        ASSERT_TRUE(res.has_value()) << error;
        runs.push_back(*res);
    }
    const ScheduleResult &a = runs[0];
    const ScheduleResult &b = runs[1];
    EXPECT_EQ(a.est_total, b.est_total);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.checked, b.checked);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(a.search_nodes, b.search_nodes);
    EXPECT_EQ(a.handoffs, b.handoffs);
    EXPECT_EQ(a.handoff_cycles, b.handoff_cycles);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t i = 0; i < a.layers.size(); ++i) {
        EXPECT_EQ(a.layers[i].device, b.layers[i].device);
        EXPECT_EQ(a.layers[i].dataflow, b.layers[i].dataflow);
        EXPECT_EQ(a.layers[i].cycles, b.layers[i].cycles);
    }
}

TEST(GraphFleet, PinnedPolicyErrorsAreActionable)
{
    const ModelGraph *graph = findModel("bert_mlp");
    ASSERT_NE(graph, nullptr);
    std::string error;

    // pinned:<dev> outside fleet mode names the missing flag.
    Scheduler single{SchedulerOptions{}};
    const std::optional<Evaluation> seval = single.evaluate(*graph, &error);
    ASSERT_TRUE(seval.has_value()) << error;
    EXPECT_FALSE(single
                     .schedule(*graph, *seval,
                               policyOf("pinned:feather:16x16"), &error)
                     .has_value());
    EXPECT_NE(error.find("needs --fleet"), std::string::npos) << error;

    // An unknown device name is rejected with the bad name echoed.
    Scheduler fleet{fleetOptions(kCiFleet, sim::EngineMode::Analytic)};
    const std::optional<Evaluation> feval = fleet.evaluate(*graph, &error);
    ASSERT_TRUE(feval.has_value()) << error;
    EXPECT_FALSE(fleet
                     .schedule(*graph, *feval, policyOf("pinned:nope"),
                               &error)
                     .has_value());
    EXPECT_NE(error.find("unknown fleet device 'nope'"), std::string::npos)
        << error;
}

TEST(GraphFleet, FixedPolicyReportsThePlanningErrorOfTheFleet)
{
    // Window-parallel plans this layer at the graph's default 8x8 shape,
    // but on the fleet's one 2x1024 device its local tile is 1024 weights.
    // The fixed schedule reports that error and plans nothing again.
    std::string error;
    const std::optional<ModelGraph> graph =
        parseModelText("conv name=a c=1024 hw=2 m=2 rs=1\n", "w", &error);
    ASSERT_TRUE(graph.has_value()) << error;
    serve::PlanCache cache;
    SchedulerOptions opts =
        fleetOptions("feather:2x1024", sim::EngineMode::Analytic);
    opts.shared_cache = &cache;
    Scheduler sched(opts);
    const std::optional<Evaluation> eval = sched.evaluate(*graph, &error);
    ASSERT_TRUE(eval.has_value()) << error;
    const serve::PlanCache::Stats before = cache.stats();
    EXPECT_FALSE(
        sched.schedule(*graph, *eval, policyOf("fixed:wp"), &error)
            .has_value());
    EXPECT_EQ(error, "fixed:window-parallel cannot schedule w: "
                     "window-parallel does not fit a: local tile 1024 "
                     "exceeds the PE register file (512)");
    const serve::PlanCache::Stats after = cache.stats();
    EXPECT_EQ(after.lookups(), before.lookups()) << "no stray lookup";
    EXPECT_EQ(after.entries, before.entries);
}

} // namespace
} // namespace model
} // namespace feather
