#include "model/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <numeric>

#include "common/log.hpp"
#include "dataflow/mapping.hpp"
#include "feather/accelerator.hpp"
#include "feather/analytic.hpp"
#include "serve/thread_pool.hpp"

namespace feather {
namespace model {

namespace {

/** Dedup key of a planning point: same mapping + layouts = same candidate. */
std::string
planKey(const sim::LayerPlan &plan)
{
    return plan.mapping.toString() + "|" + plan.in_layout.toString() + "|" +
           plan.out_layout.toString();
}

/** The same-device segments of @p result, as layer ranges [first, last]:
 *  each runs as one measured chain on its device. */
std::vector<std::pair<size_t, size_t>>
segments(const ScheduleResult &result)
{
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t i = 0; i < result.layers.size(); ++i) {
        if (!out.empty() &&
            result.layers[out.back().first].device ==
                result.layers[i].device) {
            out.back().second = i;
        } else {
            out.push_back({i, i});
        }
    }
    return out;
}

/** Layers [first, last] of @p graph as a graph of their own. */
ModelGraph
segmentGraph(const ModelGraph &graph, size_t first, size_t last)
{
    ModelGraph chain;
    chain.name = graph.name;
    chain.layers.assign(graph.layers.begin() + first,
                        graph.layers.begin() + last + 1);
    return chain;
}

/** Number of elements of a tensor of @p extents (dims with extent > 0). */
int64_t
elementCount(const Extents &extents)
{
    int64_t elements = 1;
    for (int d = 0; d < kNumDims; ++d) {
        if (extents[Dim(d)] > 0) elements *= extents[Dim(d)];
    }
    return elements;
}

} // namespace

int64_t
reorderCost(const Layout &src, const Layout &dst, const Extents &extents)
{
    if (src == dst) return 0;
    // Tile size of d in a layout's line index; 0 stands for infinity.
    const auto tile = [](const Layout &l, Dim d) -> int64_t {
        const std::vector<Dim> &o = l.interOrder();
        return std::find(o.begin(), o.end(), d) != o.end() ? l.intraSize(d)
                                                           : 0;
    };
    int64_t pairs = 1;
    for (int i = 0; i < kNumDims; ++i) {
        const int64_t e = extents[Dim(i)];
        if (e < 2) continue;
        const int64_t a = tile(src, Dim(i));
        const int64_t b = tile(dst, Dim(i));
        // ceil(e / t): tiles of size t over the dim, 1 when t is infinite.
        const auto tiles = [e](int64_t t) { return t ? (e - 1) / t + 1 : 1; };
        // The lcm term is 1 when a / gcd > e / b: no lcm, no overflow.
        const int64_t a_g = a && b ? a / std::gcd(a, b) : 0;
        pairs *= tiles(a) + tiles(b) -
                 (a_g && a_g <= e / b ? tiles(a_g * b) : 1);
    }
    return pairs;
}

int64_t
handoffCost(const Layout &src, const Layout &dst, const Extents &extents)
{
    const int64_t transfer =
        (elementCount(extents) + kLinkBytesPerCycle - 1) / kLinkBytesPerCycle;
    return reorderCost(src, dst, extents) + transfer;
}

std::optional<SchedulePolicy>
parseSchedule(const std::string &name, std::string *error)
{
    SchedulePolicy policy;
    if (name == "per-layer" || name.empty()) {
        policy.kind = ScheduleKind::PerLayer;
        return policy;
    }
    if (name == "greedy") {
        policy.kind = ScheduleKind::Greedy;
        return policy;
    }
    const std::string prefix = "fixed:";
    if (name.compare(0, prefix.size(), prefix) == 0) {
        const std::optional<sim::DataflowKind> kind =
            sim::parseDataflow(name.substr(prefix.size()));
        if (kind) {
            policy.kind = ScheduleKind::Fixed;
            policy.fixed = *kind;
            return policy;
        }
    }
    const std::string pinned = "pinned:";
    if (name.compare(0, pinned.size(), pinned) == 0 &&
        name.size() > pinned.size()) {
        policy.kind = ScheduleKind::Pinned;
        policy.pinned = name.substr(pinned.size());
        return policy;
    }
    if (error) {
        *error = "unknown schedule '" + name +
                 "' (expected per-layer, greedy, fixed:<ws|cp|wp>, or "
                 "pinned:<device>)";
    }
    return std::nullopt;
}

std::string
toString(const SchedulePolicy &policy)
{
    switch (policy.kind) {
    case ScheduleKind::PerLayer: return "per-layer";
    case ScheduleKind::Greedy: return "greedy";
    case ScheduleKind::Fixed: return "fixed:" + sim::toString(policy.fixed);
    case ScheduleKind::Pinned: return "pinned:" + policy.pinned;
    }
    return "?";
}

int
ScheduleComparison::bestFixed() const
{
    int best = -1;
    for (size_t i = 0; i < schedules.size(); ++i) {
        if (schedules[i].schedule.compare(0, 6, "fixed:") != 0) continue;
        if (best < 0 || schedules[i].cycles < schedules[size_t(best)].cycles) {
            best = int(i);
        }
    }
    return best;
}

double
ScheduleComparison::speedupVsBestFixed() const
{
    const int best = bestFixed();
    if (best < 0 || schedules.empty() || primary().cycles <= 0) return 0.0;
    return double(schedules[size_t(best)].cycles) / double(primary().cycles);
}

Scheduler::Scheduler(SchedulerOptions opts) : opts_(opts)
{
    if (opts_.num_threads < 1) opts_.num_threads = 1;
}

int
Scheduler::resolvedAw(const ModelGraph &graph) const
{
    return opts_.aw > 0 ? opts_.aw : graph.default_aw;
}

int
Scheduler::resolvedAh(const ModelGraph &graph) const
{
    return opts_.ah > 0 ? opts_.ah : graph.default_ah;
}

std::vector<FleetDevice>
Scheduler::devices(const ModelGraph &graph, std::string *error) const
{
    if (opts_.fleet.enabled()) return opts_.fleet.devices;
    const int aw = resolvedAw(graph);
    const int ah = resolvedAh(graph);
    if (std::string why = sim::arrayShapeError(aw, ah); !why.empty()) {
        if (error) *error = std::move(why);
        return {};
    }
    return {FleetDevice{"", aw, ah, int64_t(aw) * ah}};
}

std::string
Scheduler::noFitError(const ModelGraph &graph, const LayerSpec &layer,
                      const std::string &why) const
{
    if (opts_.fleet.enabled()) {
        return strCat("no fleet device fits ", layer.name, ": ", why);
    }
    return strCat("no dataflow family fits ", layer.name, " on a ",
                  resolvedAw(graph), "x", resolvedAh(graph), " array: ", why);
}

std::optional<Evaluation>
Scheduler::evaluate(const ModelGraph &graph, std::string *error)
{
    const std::string why = graph.validate();
    if (!why.empty()) {
        if (error) *error = why;
        return std::nullopt;
    }
    const std::vector<FleetDevice> devs = devices(graph, error);
    if (devs.empty()) return std::nullopt;

    // Step 1: plan every (layer, family) point on every device (at its
    // shape, through its cache scope), collapse families that induce
    // identical planning artifacts, and flatten the per-device candidate
    // lists in fleet order into one device-tagged list per layer.
    // Deduplication stays within a device, since the same (mapping,
    // layouts) point on two devices prices edges differently.
    Evaluation eval;
    for (const ModelLayer &ml : graph.layers) {
        std::vector<Candidate> candidates;
        std::vector<std::string> keys; // planKey of each candidate
        std::string plan_error;
        std::array<std::string, std::size(kFamilies)> &unfit =
            eval.unfit.emplace_back();
        for (size_t d = 0; d < devs.size(); ++d) {
            const FleetDevice &dev = devs[d];
            if (!sim::arrayShapeError(dev.aw, dev.ah).empty()) {
                plan_error = strCat(dev.name, " has an unusable ", dev.aw,
                                    "x", dev.ah, " array");
                continue;
            }
            const size_t first = candidates.size();
            for (sim::DataflowKind kind : kFamilies) {
                const std::optional<sim::LayerPlan> plan =
                    cache().getOrPlan(opts_.engine, kind, ml.spec, dev.aw,
                                      dev.ah, &plan_error, dev.name);
                if (!plan) {
                    std::string &why = unfit[size_t(kind)];
                    if (why.empty()) why = plan_error;
                    continue;
                }
                std::string key = planKey(*plan);
                const auto same =
                    std::find(keys.begin() + first, keys.end(), key);
                if (same != keys.end()) {
                    candidates[size_t(same - keys.begin())].kinds.push_back(
                        kind);
                    continue;
                }
                Candidate c;
                c.kinds = {kind};
                c.plan = *plan;
                c.device = int(d);
                candidates.push_back(std::move(c));
                keys.push_back(std::move(key));
            }
        }
        if (candidates.empty()) {
            if (error) *error = noFitError(graph, ml.spec, plan_error);
            return std::nullopt;
        }
        eval.layers.push_back(std::move(candidates));
    }

    // Step 2: price every unique candidate standalone, in parallel, once
    // per cache. Slots are pre-sized, so the result is bit-identical at
    // any num_threads. Prices come from the control alone, no data
    // moving: a cycle-tier candidate walks every step (cycleLayerStats),
    // an analytic one probes one (analyticLayerStats). Neither depends on
    // the seed or the multiplier, so the stats are memoized beside the
    // plan; the measured chain is the verified run.
    struct EvalSlot
    {
        size_t layer;
        size_t cand;
        std::string error;
    };
    std::vector<EvalSlot> slots;
    for (size_t li = 0; li < eval.layers.size(); ++li) {
        for (size_t ci = 0; ci < eval.layers[li].size(); ++ci) {
            slots.push_back({li, ci, ""});
        }
    }
    {
        serve::ThreadPool pool(opts_.num_threads);
        for (EvalSlot &slot : slots) {
            pool.submit([this, &graph, &eval, &devs, &slot] {
                const ModelLayer &ml = graph.layers[slot.layer];
                Candidate &cand = eval.layers[slot.layer][slot.cand];
                const FleetDevice &dev = devs[size_t(cand.device)];
                const std::string key = serve::PlanCache::key(
                    opts_.engine, cand.kinds.front(), ml.spec, dev.aw,
                    dev.ah, dev.name);
                try {
                    std::optional<LayerStats> stats = cache().findStats(key);
                    if (!stats) {
                        FeatherConfig cfg;
                        cfg.aw = dev.aw;
                        cfg.ah = dev.ah;
                        const sim::LayerPlan &p = cand.plan;
                        stats = opts_.engine == sim::EngineMode::Cycle
                                    ? cycleLayerStats(ml.spec, p.mapping,
                                                      p.in_layout,
                                                      p.out_layout, cfg)
                                    : analyticLayerStats(ml.spec, p.mapping,
                                                         p.in_layout,
                                                         p.out_layout, cfg);
                        cache().storeStats(key, *stats);
                    }
                    cand.est_cycles = stats->cycles;
                    cand.macs = stats->macs;
                } catch (const std::exception &e) {
                    slot.error = e.what();
                }
            });
        }
        pool.wait();
    }
    for (const EvalSlot &slot : slots) {
        if (slot.error.empty()) continue;
        if (error) {
            *error = strCat("evaluating ", graph.layers[slot.layer].spec.name,
                            "/", sim::toString(
                                     eval.layers[slot.layer][slot.cand]
                                         .kinds.front()),
                            " failed: ", slot.error);
        }
        return std::nullopt;
    }

    // Step 3: price every layer-to-layer hand-off once. The intermediate
    // tensor of edge i is layer i's input. Same-device edges cost the
    // BIRRD reorder; cross-device edges add the inter-chip link transfer
    // term via handoffCost.
    eval.edges.resize(eval.layers.size());
    for (size_t i = 1; i < eval.layers.size(); ++i) {
        const Extents extents = iactExtents(graph.layers[i].spec);
        eval.edges[i].resize(eval.layers[i - 1].size());
        for (size_t p = 0; p < eval.layers[i - 1].size(); ++p) {
            const Candidate &prev = eval.layers[i - 1][p];
            for (size_t c = 0; c < eval.layers[i].size(); ++c) {
                const Candidate &next = eval.layers[i][c];
                eval.edges[i][p].push_back(
                    prev.device == next.device
                        ? reorderCost(prev.plan.out_layout,
                                      next.plan.in_layout, extents)
                        : handoffCost(prev.plan.out_layout,
                                      next.plan.in_layout, extents));
            }
        }
    }
    return eval;
}

bool
Scheduler::pickCandidates(const ModelGraph &graph, const Evaluation &eval,
                          const SchedulePolicy &policy,
                          std::vector<size_t> *out_picks,
                          int64_t *search_nodes, std::string *error)
{
    FEATHER_CHECK(eval.layers.size() == graph.layers.size(),
                  "schedule: evaluation does not match the graph");
    const size_t n = graph.layers.size();
    const auto edge = [&](size_t i, size_t p, size_t c) {
        return eval.edges[i][p][c];
    };
    int64_t nodes = 0;

    // Pinned restricts the search to one fleet device's candidates; the
    // remaining policies then run unchanged over the masked table.
    int pin = -1;
    if (policy.kind == ScheduleKind::Pinned) {
        if (!opts_.fleet.enabled()) {
            if (error) {
                *error = strCat(toString(policy),
                                " needs --fleet (no fleet configured)");
            }
            return false;
        }
        pin = opts_.fleet.deviceIndex(policy.pinned);
        if (pin < 0) {
            if (error) {
                *error = strCat(toString(policy), " cannot schedule ",
                                graph.name, ": unknown fleet device '",
                                policy.pinned, "'");
            }
            return false;
        }
    }
    const auto allowed = [&](size_t i, size_t c) {
        return pin < 0 || eval.layers[i][c].device == pin;
    };

    std::vector<size_t> &picks = *out_picks;
    picks.assign(n, 0);
    if (policy.kind == ScheduleKind::Fixed) {
        for (size_t i = 0; i < n; ++i) {
            bool found = false;
            for (size_t c = 0; c < eval.layers[i].size(); ++c) {
                ++nodes;
                const auto &kinds = eval.layers[i][c].kinds;
                for (sim::DataflowKind k : kinds) {
                    if (k == policy.fixed) {
                        picks[i] = c;
                        found = true;
                        break;
                    }
                }
                if (found) break;
            }
            if (!found) {
                if (error) {
                    *error = strCat(toString(policy), " cannot schedule ",
                                    graph.name, ": ",
                                    eval.unfit[i][size_t(policy.fixed)]);
                }
                return false;
            }
        }
    } else if (policy.kind == ScheduleKind::Greedy) {
        for (size_t i = 0; i < n; ++i) {
            int64_t best = std::numeric_limits<int64_t>::max();
            for (size_t c = 0; c < eval.layers[i].size(); ++c) {
                ++nodes;
                int64_t cost = eval.layers[i][c].est_cycles;
                if (i > 0) cost += edge(i, picks[i - 1], c);
                if (cost < best) {
                    best = cost;
                    picks[i] = c;
                }
            }
        }
    } else { // PerLayer/Pinned: DP shortest path over (layer, candidate)
             // states — the candidates carry device tags, so the same
             // relaxation searches (layer, device, candidate).
        constexpr int64_t kInf = std::numeric_limits<int64_t>::max();
        std::vector<std::vector<int64_t>> dp(n);
        std::vector<std::vector<size_t>> parent(n);
        for (size_t c = 0; c < eval.layers[0].size(); ++c) {
            ++nodes;
            dp[0].push_back(allowed(0, c) ? eval.layers[0][c].est_cycles
                                          : kInf);
            parent[0].push_back(0);
        }
        for (size_t i = 1; i < n; ++i) {
            dp[i].assign(eval.layers[i].size(), kInf);
            parent[i].assign(eval.layers[i].size(), 0);
            for (size_t c = 0; c < eval.layers[i].size(); ++c) {
                if (!allowed(i, c)) continue;
                for (size_t p = 0; p < eval.layers[i - 1].size(); ++p) {
                    if (dp[i - 1][p] == kInf) continue;
                    ++nodes;
                    const int64_t cost = dp[i - 1][p] + edge(i, p, c) +
                                         eval.layers[i][c].est_cycles;
                    if (cost < dp[i][c]) {
                        dp[i][c] = cost;
                        parent[i][c] = p;
                    }
                }
            }
        }
        size_t best = 0;
        for (size_t c = 1; c < dp[n - 1].size(); ++c) {
            if (dp[n - 1][c] < dp[n - 1][best]) best = c;
        }
        if (dp[n - 1][best] == kInf) {
            // Only reachable when a pin excludes some layer entirely.
            if (error) {
                *error = strCat(toString(policy), " cannot schedule ",
                                graph.name, ": no ", policy.pinned,
                                " candidate for every layer");
            }
            return false;
        }
        picks[n - 1] = best;
        for (size_t i = n - 1; i > 0; --i) {
            picks[i - 1] = parent[i][picks[i]];
        }
    }
    if (search_nodes) *search_nodes = nodes;
    return true;
}

ScheduleResult
Scheduler::assemble(const ModelGraph &graph, const Evaluation &eval,
                    const SchedulePolicy &policy,
                    const std::vector<size_t> &picks) const
{
    ScheduleResult result;
    result.model = graph.name;
    result.schedule = toString(policy);
    result.aw = resolvedAw(graph);
    result.ah = resolvedAh(graph);
    result.seed = opts_.seed;
    result.engine = opts_.engine;
    result.fleet = opts_.fleet.spec;
    const std::vector<FleetDevice> devs = devices(graph);
    for (size_t i = 0; i < graph.layers.size(); ++i) {
        const Candidate &cand = eval.layers[i][picks[i]];
        LayerChoice choice;
        choice.layer = graph.layers[i].spec.name;
        choice.op = feather::toString(graph.layers[i].spec.type);
        choice.dataflow = policy.kind == ScheduleKind::Fixed
                              ? policy.fixed
                              : cand.kinds.front();
        choice.plan = cand.plan;
        choice.est_cycles = cand.est_cycles;
        choice.reorder_cycles =
            i > 0 ? eval.edges[i][picks[i - 1]][picks[i]] : 0;
        choice.device = cand.device;
        choice.device_name = devs[size_t(cand.device)].name;
        if (i > 0 && eval.layers[i - 1][picks[i - 1]].device != cand.device) {
            // Cross-device edge: its price (reorder + link transfer)
            // already sits in reorder_cycles; count it separately too.
            ++result.handoffs;
            result.handoff_cycles += choice.reorder_cycles;
        }
        result.est_total += choice.est_cycles + choice.reorder_cycles;
        result.layers.push_back(std::move(choice));
    }
    return result;
}

bool
Scheduler::measure(const ModelGraph &graph, ScheduleResult *result,
                   std::string *error, const SegmentReferences *refs)
{
    // Step 5: execute the chosen schedule as measured, bit-exact chains
    // through the StaB ping-pong (layer i writes directly in layer i+1's
    // input layout): each contiguous same-device segment runs as one chain
    // on its device's shape (through that device's cache scope). The
    // cross-device hand-off between segments is priced by the edge model,
    // not replayed — each segment verifies bit-exactly against the
    // reference operators from freshly seeded inputs. A one-device
    // schedule is a single chain.
    const std::vector<FleetDevice> devs = devices(graph);
    const auto start = std::chrono::steady_clock::now();
    for (const auto &[first, last] : segments(*result)) {
        const FleetDevice &dev = devs[size_t(result->layers[first].device)];
        // The segment, pinned to the schedule's picks.
        ModelGraph chain = segmentGraph(graph, first, last);
        for (size_t i = first; i <= last; ++i) {
            chain.layers[i - first].dataflow = result->layers[i].dataflow;
        }
        sim::ScenarioOptions sopts;
        sopts.aw = dev.aw;
        sopts.ah = dev.ah;
        sopts.seed = opts_.seed;
        if (refs) {
            const auto it = refs->find({first, last});
            if (it != refs->end()) sopts.reference = it->second;
        }
        // Measured cycles are the ground truth the report ranks schedules
        // by: the chain always replays cycle-accurately, whatever tier
        // evaluated the candidates.
        sopts.engine = sim::EngineMode::Cycle;
        const std::optional<sim::ScenarioRun> run = sim::runScenario(
            chain, sopts, error, cache().planFn(dev.name));
        if (!run) return false;
        for (size_t i = first; i <= last; ++i) {
            const sim::RunResult &r = run->chain.layers[i - first];
            result->layers[i].cycles = r.stats.cycles;
            result->layers[i].macs = r.stats.macs;
            result->layers[i].read_stalls = r.stats.read_stall_cycles;
            result->layers[i].write_stalls = r.stats.write_stall_cycles;
            result->layers[i].pe_cycles = r.stats.cycles * dev.aw * dev.ah;
            result->cycles += r.stats.cycles;
            result->macs += r.stats.macs;
            result->read_stalls += r.stats.read_stall_cycles;
            result->write_stalls += r.stats.write_stall_cycles;
            result->arena_peak_bytes =
                std::max(result->arena_peak_bytes, r.stats.arena_peak_bytes);
        }
        result->checked += run->chain.checked;
        result->mismatches += run->chain.mismatches;
    }
    result->sim_wall_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    return true;
}

std::optional<ScheduleResult>
Scheduler::schedule(const ModelGraph &graph, const Evaluation &eval,
                    const SchedulePolicy &policy, std::string *error)
{
    std::vector<size_t> picks;
    int64_t search_nodes = 0;
    if (!pickCandidates(graph, eval, policy, &picks, &search_nodes, error)) {
        return std::nullopt;
    }
    ScheduleResult result = assemble(graph, eval, policy, picks);
    result.search_nodes = search_nodes;
    if (!measure(graph, &result, error)) return std::nullopt;
    return result;
}

std::optional<ScheduleComparison>
Scheduler::compare(const ModelGraph &graph, const SchedulePolicy &primary,
                   std::string *error)
{
    const std::optional<Evaluation> eval = evaluate(graph, error);
    if (!eval) return std::nullopt;

    std::vector<SchedulePolicy> policies = {primary};
    SchedulePolicy per_layer;
    per_layer.kind = ScheduleKind::PerLayer;
    SchedulePolicy greedy;
    greedy.kind = ScheduleKind::Greedy;
    for (const SchedulePolicy &p : {per_layer, greedy}) {
        if (toString(p) != toString(primary)) policies.push_back(p);
    }
    for (sim::DataflowKind kind : kFamilies) {
        SchedulePolicy p;
        p.kind = ScheduleKind::Fixed;
        p.fixed = kind;
        if (toString(p) != toString(primary)) policies.push_back(p);
    }
    // Every device of an explicit fleet is a single-device baseline the
    // primary schedule is ranked against (the DP should beat the best of
    // them whenever splitting the graph pays for its hand-offs).
    for (const FleetDevice &dev : opts_.fleet.devices) {
        SchedulePolicy p;
        p.kind = ScheduleKind::Pinned;
        p.pinned = dev.name;
        if (toString(p) != toString(primary)) policies.push_back(p);
    }

    // Pick every policy's schedule first (cheap table lookups over the
    // shared evaluation), remembering which policies landed on identical
    // candidate picks — same picks means same plans, so one measured
    // chain run serves them all.
    struct Slot
    {
        bool picked = false;
        std::string error;
        std::vector<size_t> picks;
        ScheduleResult result;
        size_t measure_as = 0; ///< index of the slot whose chain runs
    };
    std::vector<Slot> slots(policies.size());
    for (size_t i = 0; i < policies.size(); ++i) {
        Slot &slot = slots[i];
        int64_t search_nodes = 0;
        slot.picked = pickCandidates(graph, *eval, policies[i],
                                     &slot.picks, &search_nodes,
                                     &slot.error);
        if (!slot.picked) continue;
        slot.result = assemble(graph, *eval, policies[i], slot.picks);
        slot.result.search_nodes = search_nodes;
        slot.measure_as = i;
        for (size_t j = 0; j < i; ++j) {
            if (slots[j].picked && slots[j].picks == slot.picks) {
                slot.measure_as = j;
                break;
            }
        }
    }

    // Every chain of a segment [first, last] draws the same inputs at
    // opts_.seed, whatever its plans and device, so its golden output is
    // one tensor: compute it once per distinct segment, then let every
    // chain of that segment compare its whole read-back against it. The
    // references die with compare().
    SegmentReferences refs;
    for (size_t i = 0; i < policies.size(); ++i) {
        if (!slots[i].picked || slots[i].measure_as != i) continue;
        for (const auto &seg : segments(slots[i].result)) refs[seg];
    }

    // The reference ops and the measured chain runs dominate compare()
    // wall-clock and are independent — fan them out on the same pool
    // candidate evaluation used, references first. Results land in
    // per-policy slots and every plan lookup hits the cache evaluate()
    // warmed, so the comparison (including the cache counters) is
    // bit-identical at any thread count.
    {
        serve::ThreadPool pool(opts_.num_threads);
        for (auto &[seg, ref] : refs) {
            pool.submit([this, &graph, &seg = seg, &ref = ref] {
                try {
                    ref = std::make_shared<const Int8Tensor>(
                        sim::scenarioReference(
                            segmentGraph(graph, seg.first, seg.second),
                            opts_.seed));
                } catch (const std::exception &) {
                    // Left null: the chain reports the failure itself.
                }
            });
        }
        pool.wait();
        for (size_t i = 0; i < policies.size(); ++i) {
            if (!slots[i].picked || slots[i].measure_as != i) continue;
            pool.submit([this, &graph, &slots, &refs, i] {
                try {
                    if (!measure(graph, &slots[i].result, &slots[i].error,
                                 &refs)) {
                        slots[i].picked = false;
                    }
                } catch (const std::exception &e) {
                    slots[i].error = e.what();
                    slots[i].picked = false;
                }
            });
        }
        pool.wait();
    }

    ScheduleComparison cmp;
    for (size_t i = 0; i < policies.size(); ++i) {
        Slot &slot = slots[i];
        const Slot &measured = slots[slot.measure_as];
        if (!slot.picked || !measured.picked) {
            if ((policies[i].kind == ScheduleKind::Fixed ||
                 policies[i].kind == ScheduleKind::Pinned) &&
                toString(policies[i]) != toString(primary)) {
                // A baseline family or device that cannot map every layer
                // is simply absent from the comparison; the primary must
                // schedule.
                continue;
            }
            if (error) {
                *error = slot.picked ? measured.error : slot.error;
            }
            return std::nullopt;
        }
        if (slot.measure_as != i) {
            // Same picks, same plans: graft the measured stats onto this
            // policy's skeleton instead of re-simulating the chain.
            for (size_t l = 0; l < slot.result.layers.size(); ++l) {
                LayerChoice &dst = slot.result.layers[l];
                const LayerChoice &src = measured.result.layers[l];
                dst.cycles = src.cycles;
                dst.macs = src.macs;
                dst.read_stalls = src.read_stalls;
                dst.write_stalls = src.write_stalls;
                dst.pe_cycles = src.pe_cycles;
            }
            slot.result.cycles = measured.result.cycles;
            slot.result.macs = measured.result.macs;
            slot.result.read_stalls = measured.result.read_stalls;
            slot.result.write_stalls = measured.result.write_stalls;
            slot.result.checked = measured.result.checked;
            slot.result.mismatches = measured.result.mismatches;
            slot.result.sim_wall_us = measured.result.sim_wall_us;
            slot.result.arena_peak_bytes = measured.result.arena_peak_bytes;
        }
        // Copy, not move: a later slot may still graft from this one.
        cmp.schedules.push_back(slot.result);
    }
    cmp.cache = cache().stats();
    return cmp;
}

} // namespace model
} // namespace feather
