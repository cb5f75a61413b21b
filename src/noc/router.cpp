#include "noc/router.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <string_view>

#include "common/bits.hpp"
#include "common/log.hpp"

namespace feather {

std::string
RouteRequest::key() const
{
    std::string k;
    k.reserve(group_of_input.size() * 3 + dests_of_group.size() * 4);
    for (int g : group_of_input) {
        k += std::to_string(g);
        k += ',';
    }
    k += '|';
    for (const auto &dests : dests_of_group) {
        for (int d : dests) {
            k += std::to_string(d);
            k += ',';
        }
        k += ';';
    }
    k += allow_broadcast ? 'B' : 'b';
    return k;
}

RouteRequest
RouteRequest::reduction(std::vector<int> group_of_input,
                        const std::vector<int> &dest_of_group)
{
    RouteRequest req;
    req.group_of_input = std::move(group_of_input);
    req.dests_of_group.reserve(dest_of_group.size());
    for (int d : dest_of_group) {
        req.dests_of_group.push_back({d});
    }
    return req;
}

RouteRequest
RouteRequest::permutation(const std::vector<int> &dest_of_input)
{
    RouteRequest req;
    req.group_of_input.assign(dest_of_input.size(), -1);
    for (size_t i = 0; i < dest_of_input.size(); ++i) {
        if (dest_of_input[i] < 0) continue;
        req.group_of_input[i] = int(req.dests_of_group.size());
        req.dests_of_group.push_back({dest_of_input[i]});
    }
    return req;
}

BirrdRouter::BirrdRouter(const BirrdTopology &topo, uint64_t seed)
    : topo_(topo), rng_(seed)
{
    // Crossover boundary: from stage X on, the two children of every switch
    // reach disjoint output sets, so paths are destination-forced.
    const int n = topo_.numInputs();
    const int logn = int(log2Exact(uint64_t(n)));
    crossover_stage_ = topo_.numStages() - logn;

    // First-half reachability (to crossover ports).
    reach_fh_.assign(size_t(crossover_stage_ + 1),
                     std::vector<uint64_t>(size_t(n), 0));
    for (int p = 0; p < n; ++p) {
        reach_fh_[size_t(crossover_stage_)][size_t(p)] = uint64_t{1} << p;
    }
    for (int t = crossover_stage_ - 1; t >= 0; --t) {
        for (int p = 0; p < n; ++p) {
            const int sw = p / 2;
            reach_fh_[size_t(t)][size_t(p)] =
                reach_fh_[size_t(t + 1)][size_t(topo_.wire(t, 2 * sw))] |
                reach_fh_[size_t(t + 1)][size_t(topo_.wire(t, 2 * sw + 1))];
        }
    }
}

const BirrdConfigWord *
BirrdRouter::route(const RouteRequest &req)
{
    ++stats_.requests;
    const int n = topo_.numInputs();
    FEATHER_CHECK(int(req.group_of_input.size()) == n,
                  "request arity ", req.group_of_input.size(),
                  " != BIRRD inputs ", n);

    const std::string key = req.key();
    if (auto it = cache_.find(key); it != cache_.end()) {
        ++stats_.cache_hits;
        return &it->second;
    }

    // Validate the request.
    std::vector<int> group_sizes(req.dests_of_group.size(), 0);
    std::vector<uint64_t> dest_masks(req.dests_of_group.size(), 0);
    for (int g : req.group_of_input) {
        if (g < 0) continue;
        FEATHER_CHECK(g < int(req.dests_of_group.size()),
                      "input references unknown group ", g);
        ++group_sizes[size_t(g)];
    }
    uint64_t all_dests = 0;
    for (size_t g = 0; g < req.dests_of_group.size(); ++g) {
        FEATHER_CHECK(!req.dests_of_group[g].empty(),
                      "group ", g, " has no destination");
        FEATHER_CHECK(group_sizes[g] > 0,
                      "group ", g, " has no member inputs");
        FEATHER_CHECK(req.dests_of_group[g].size() == 1 || req.allow_broadcast,
                      "multicast group without broadcast extension");
        for (int d : req.dests_of_group[g]) {
            FEATHER_CHECK(d >= 0 && d < n, "dest ", d, " out of range");
            FEATHER_CHECK((dest_masks[g] & (uint64_t{1} << d)) == 0,
                          "duplicate dest ", d, " in group ", g);
            dest_masks[g] |= uint64_t{1} << d;
        }
        FEATHER_CHECK((all_dests & dest_masks[g]) == 0,
                      "two groups share a dest port");
        all_dests |= dest_masks[g];
    }

    std::optional<BirrdConfigWord> result;
    if (use_path_search_) {
        // Configs are generated offline into the Instruction Buffer and
        // cached, so wide networks may afford many rapid restarts.
        const int restarts = n >= 64 ? 1024 : (n >= 32 ? 256 : kMaxRestarts);
        result = routeByPaths(req, /*randomized=*/false);
        for (int r = 0; r < restarts && !result; ++r) {
            result = routeByPaths(req, /*randomized=*/true);
        }
        if (result) ++stats_.solved_path_search;
    }
    // Brute-force fallback (the paper's "brute force all possible
    // configurations"): tractable on small networks; on larger ones the
    // path search with restarts is strictly stronger.
    if (!result && (!use_path_search_ || topo_.numInputs() <= 8)) {
        result = routeByDfs(req, /*randomized=*/false);
        for (int r = 0; r < kMaxRestarts && !result; ++r) {
            result = routeByDfs(req, /*randomized=*/true);
        }
        if (result) ++stats_.solved_fallback;
    }
    if (!result) {
        ++stats_.failures;
        return nullptr;
    }
    FEATHER_CHECK(verify(topo_, *result, req),
                  "router produced a config that fails verification");
    return &cache_.emplace(key, std::move(*result)).first->second;
}

namespace {

/** The process table behind every thread's CompiledWaves front cache. */
struct SharedWaves
{
    std::mutex mu;
    std::unordered_map<std::string, int64_t> hops;
};

SharedWaves &
sharedWaves()
{
    static SharedWaves table;
    return table;
}

} // namespace

CompiledWaves &
CompiledWaves::local()
{
    thread_local CompiledWaves table;
    return table;
}

const int64_t *
CompiledWaves::findShared(const std::string &key)
{
    SharedWaves &shared = sharedWaves();
    std::string_view stored;
    int64_t hops = 0;
    {
        std::lock_guard<std::mutex> lk(shared.mu);
        const auto it = shared.hops.find(key);
        if (it == shared.hops.end()) return nullptr;
        stored = it->first;
        hops = it->second;
    }
    return &hops_.emplace(stored, hops).first->second;
}

int64_t
CompiledWaves::compile(const std::string &key, const RouteRequest &req)
{
    const int n = int(req.group_of_input.size());
    const BirrdNetwork net(n);
    BirrdRouter router(net.topology());
    const BirrdConfigWord *config = router.route(req);
    FEATHER_CHECK(config != nullptr,
                  "BIRRD routing failed for a FEATHER pattern");
    std::vector<PortValue> live(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        if (req.group_of_input[size_t(i)] >= 0) live[size_t(i)] = 1;
    }
    const int64_t hops = net.activeSwitches(*config, live);
    std::string_view stored;
    {
        SharedWaves &shared = sharedWaves();
        std::lock_guard<std::mutex> lk(shared.mu);
        stored = shared.hops.emplace(key, hops).first->first;
    }
    hops_.emplace(stored, hops);
    return hops;
}

size_t
CompiledWaves::size()
{
    SharedWaves &shared = sharedWaves();
    std::lock_guard<std::mutex> lk(shared.mu);
    return shared.hops.size();
}

// ---------------------------------------------------------------------------
// Path-based search
// ---------------------------------------------------------------------------

void
BirrdRouter::PathState::set(int t, int port, int group, uint8_t drive_bits)
{
    const bool has_drive = size_t(t) < drive.size();
    log.push_back(Change{int16_t(t), int16_t(port),
                         occ[size_t(t)][size_t(port)],
                         has_drive ? drive[size_t(t)][size_t(port)]
                                   : uint8_t(0)});
    occ[size_t(t)][size_t(port)] = group;
    if (has_drive) drive[size_t(t)][size_t(port)] = drive_bits;
}

void
BirrdRouter::PathState::rollback(size_t mark)
{
    while (log.size() > mark) {
        const Change &c = log.back();
        occ[size_t(c.t)][size_t(c.port)] = c.old_occ;
        if (size_t(c.t) < drive.size()) {
            drive[size_t(c.t)][size_t(c.port)] = c.old_drive;
        }
        log.pop_back();
    }
}

bool
BirrdRouter::placeFirstHalf(PathState &st, int group, int input_port,
                            int crossover) const
{
    // Small networks (AW <= 4) have a truncated first half that cannot
    // deliver every input to every crossover port; reject unreachable
    // candidates up front.
    if (!((reach_fh_[0][size_t(input_port)] >> crossover) & 1)) {
        return false;
    }
    int q = input_port;
    for (int t = 0; t < crossover_stage_; ++t) {
        const int occ = st.occ[size_t(t)][size_t(q)];
        if (occ >= 0 && occ != group) return false;
        const int sw = q / 2;
        const int next0 = topo_.wire(t, 2 * sw);
        const int next1 = topo_.wire(t, 2 * sw + 1);
        const bool via0 = (reach_fh_[size_t(t + 1)][size_t(next0)] >>
                           crossover) & 1;
        // A port carries one value: members that merged here (same group)
        // must continue in the same direction; a divergent continuation
        // would silently split an already-merged partial sum.
        const uint8_t drive = st.drive[size_t(t)][size_t(q)];
        const uint8_t bit = via0 ? 1 : 2;
        if (drive != 0 && drive != bit) return false;
        st.set(t, q, group, bit);
        q = via0 ? next0 : next1;
    }
    FEATHER_CHECK(q == crossover, "first-half path missed its crossover");
    const int occ = st.occ[size_t(crossover_stage_)][size_t(q)];
    if (occ >= 0 && occ != group) return false;
    if (size_t(crossover_stage_) < st.drive.size()) {
        // Preserve any drive bits already present at the crossover
        // boundary (set by a previously placed second half).
        st.set(crossover_stage_, q, group,
               st.drive[size_t(crossover_stage_)][size_t(q)]);
    } else {
        st.set(crossover_stage_, q, group, 0);
    }
    return true;
}

bool
BirrdRouter::placeSecondHalf(PathState &st, int group, int crossover,
                             uint64_t dest_mask) const
{
    // Iterative tree walk from the crossover port: stack of (stage, port,
    // dests-to-cover). Occupancy at the crossover boundary was claimed by
    // placeFirstHalf.
    struct Node { int t, q; uint64_t dests; };
    std::vector<Node> work = {{crossover_stage_, crossover, dest_mask}};
    const int last = topo_.numStages();
    while (!work.empty()) {
        const Node node = work.back();
        work.pop_back();
        const int occ = st.occ[size_t(node.t)][size_t(node.q)];
        if (occ >= 0 && occ != group) return false;
        if (node.t == last) {
            if (node.dests != (uint64_t{1} << node.q)) return false;
            st.set(node.t, node.q, group, 0);
            continue;
        }
        const int sw = node.q / 2;
        const int next0 = topo_.wire(node.t, 2 * sw);
        const int next1 = topo_.wire(node.t, 2 * sw + 1);
        const uint64_t d0 =
            node.dests & topo_.reachable(node.t + 1, next0);
        const uint64_t d1 =
            node.dests & topo_.reachable(node.t + 1, next1);
        if ((d0 | d1) != node.dests) return false;
        // Same one-value-per-port rule as the first half: a converging
        // sibling path must continue exactly the way this port already
        // drives.
        const uint8_t need = uint8_t((d0 ? 1 : 0) | (d1 ? 2 : 0));
        const uint8_t drive = st.drive[size_t(node.t)][size_t(node.q)];
        if (drive != 0 && drive != need) return false;
        st.set(node.t, node.q, group, need);
        if (d0) work.push_back({node.t + 1, next0, d0});
        if (d1) work.push_back({node.t + 1, next1, d1});
    }
    return true;
}

BirrdConfigWord
BirrdRouter::extractConfig(const PathState &st, const RouteRequest &req) const
{
    BirrdConfigWord config(size_t(topo_.numStages()),
                           std::vector<EggConfig>(
                               size_t(topo_.switchesPerStage()),
                               EggConfig::Pass));
    for (int t = 0; t < topo_.numStages(); ++t) {
        for (int sw = 0; sw < topo_.switchesPerStage(); ++sw) {
            const uint8_t da = st.drive[size_t(t)][size_t(2 * sw)];
            const uint8_t db = st.drive[size_t(t)][size_t(2 * sw + 1)];
            EggConfig cfg = EggConfig::Pass;
            if (da == 0 && db == 0) {
                cfg = EggConfig::Pass;
            } else if (db == 0) {
                cfg = da == 1 ? EggConfig::Pass
                              : (da == 2 ? EggConfig::Swap
                                         : EggConfig::DupLeft);
            } else if (da == 0) {
                cfg = db == 2 ? EggConfig::Pass
                              : (db == 1 ? EggConfig::Swap
                                         : EggConfig::DupRight);
            } else if (da == 1 && db == 2) {
                cfg = EggConfig::Pass;
            } else if (da == 2 && db == 1) {
                cfg = EggConfig::Swap;
            } else if (da == 1 && db == 1) {
                cfg = EggConfig::AddLeft;
            } else if (da == 2 && db == 2) {
                cfg = EggConfig::AddRight;
            } else if (da == 3 && db == 3) {
                cfg = EggConfig::AddBoth;
            } else {
                panic(strCat("unexpressible egg drive pattern da=", int(da),
                             " db=", int(db), " at stage ", t, " switch ",
                             sw));
            }
            if ((cfg == EggConfig::DupLeft || cfg == EggConfig::DupRight ||
                 cfg == EggConfig::AddBoth) &&
                !req.allow_broadcast) {
                panic("broadcast egg emitted without the extension enabled");
            }
            config[size_t(t)][size_t(sw)] = cfg;
        }
    }
    return config;
}

std::optional<BirrdConfigWord>
BirrdRouter::routeByPaths(const RouteRequest &req, bool randomized)
{
    const int n = topo_.numInputs();

    // Build tasks: multicast groups route all members through one crossover
    // port (one task per group); single-dest groups route each member
    // independently (its path merges with siblings wherever they meet).
    std::vector<PathTask> tasks;
    std::vector<std::vector<int>> members(req.dests_of_group.size());
    std::vector<uint64_t> dest_masks(req.dests_of_group.size(), 0);
    for (size_t g = 0; g < req.dests_of_group.size(); ++g) {
        for (int d : req.dests_of_group[g]) {
            dest_masks[g] |= uint64_t{1} << d;
        }
    }
    for (int i = 0; i < n; ++i) {
        const int g = req.group_of_input[size_t(i)];
        if (g >= 0) members[size_t(g)].push_back(i);
    }
    for (size_t g = 0; g < req.dests_of_group.size(); ++g) {
        if (req.dests_of_group[g].size() > 1) {
            PathTask task;
            task.group = int(g);
            task.input_port = -1; // all members
            task.dest_mask = dest_masks[g];
            tasks.push_back(task);
        } else {
            for (int m : members[g]) {
                tasks.push_back(PathTask{int(g), m, dest_masks[g]});
            }
        }
    }
    // Multicast tasks first (most constrained).
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const PathTask &a, const PathTask &b) {
                         return (a.input_port < 0) > (b.input_port < 0);
                     });
    if (randomized) {
        for (size_t i = tasks.size(); i > 1; --i) {
            std::swap(tasks[i - 1], tasks[rng_.below(uint64_t(i))]);
        }
    }

    PathState st;
    st.occ.assign(size_t(topo_.numStages() + 1),
                  std::vector<int>(size_t(n), -1));
    st.drive.assign(size_t(topo_.numStages()),
                    std::vector<uint8_t>(size_t(n), 0));

    // Candidate crossover orders per task.
    std::vector<int> base_order(static_cast<size_t>(n));
    std::iota(base_order.begin(), base_order.end(), 0);

    // Recursive lambda over tasks with undo-log backtracking.
    int64_t nodes = 0;
    auto solve = [&](auto &&self, size_t idx) -> bool {
        if (idx == tasks.size()) return true;
        const PathTask &task = tasks[idx];

        std::vector<int> order = base_order;
        // Heuristic: try the crossover port above a destination first —
        // for identity-like patterns this yields straight paths.
        const int preferred = int(log2Exact(
            uint64_t(task.dest_mask & ~(task.dest_mask - 1))));
        std::swap(order[0], order[size_t(preferred)]);
        if (randomized) {
            for (size_t i = order.size(); i > 1; --i) {
                std::swap(order[i - 1], order[rng_.below(uint64_t(i))]);
            }
        }

        for (int c : order) {
            // Crossover ports are the scarce resource: skip candidates a
            // different group already owns before walking any path.
            const int cross_occ =
                st.occ[size_t(crossover_stage_)][size_t(c)];
            if (cross_occ >= 0 && cross_occ != task.group) continue;
            if (++nodes > kNodeBudget) return false;
            const size_t mark = st.mark();
            bool ok = true;
            if (task.input_port >= 0) {
                ok = placeFirstHalf(st, task.group, task.input_port, c);
            } else {
                for (int m : members[size_t(task.group)]) {
                    if (!placeFirstHalf(st, task.group, m, c)) {
                        ok = false;
                        break;
                    }
                }
            }
            if (ok) ok = placeSecondHalf(st, task.group, c, task.dest_mask);
            if (ok && self(self, idx + 1)) return true;
            st.rollback(mark);
            if (nodes > kNodeBudget) return false;
        }
        return false;
    };

    const bool ok = solve(solve, 0);
    stats_.nodes_explored += nodes;
    if (!ok) return std::nullopt;
    return extractConfig(st, req);
}

// ---------------------------------------------------------------------------
// Brute-force DFS fallback (paper: "we will brute force all possible
// configurations" when the path-selection algorithm fails)
// ---------------------------------------------------------------------------

std::optional<BirrdConfigWord>
BirrdRouter::routeByDfs(const RouteRequest &req, bool randomized)
{
    const int n = topo_.numInputs();
    SearchCtx ctx;
    ctx.req = &req;
    ctx.group_sizes.assign(req.dests_of_group.size(), 0);
    ctx.dest_masks.assign(req.dests_of_group.size(), 0);
    for (int g : req.group_of_input) {
        if (g >= 0) ++ctx.group_sizes[size_t(g)];
    }
    for (size_t g = 0; g < req.dests_of_group.size(); ++g) {
        for (int d : req.dests_of_group[g]) {
            ctx.dest_masks[g] |= uint64_t{1} << d;
        }
    }

    std::vector<Sig> ports(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        if (req.group_of_input[size_t(i)] >= 0) {
            ports[size_t(i)] = Sig{req.group_of_input[size_t(i)], 1};
        }
    }

    ctx.nodes = 0;
    ctx.randomized = randomized;
    ctx.rng = &rng_;
    ctx.config.assign(size_t(topo_.numStages()),
                      std::vector<EggConfig>(
                          size_t(topo_.switchesPerStage()),
                          EggConfig::Pass));
    const bool ok = dfs(ctx, 0, 0, ports);
    stats_.nodes_explored += ctx.nodes;
    if (!ok) return std::nullopt;
    return ctx.config;
}

bool
BirrdRouter::boundaryOk(const SearchCtx &ctx, int next_stage,
                        const std::vector<Sig> &ports) const
{
    const int remaining = topo_.numStages() - next_stage;
    const size_t num_groups = ctx.dest_masks.size();

    std::vector<int> copies(num_groups, 0);
    std::vector<uint64_t> reach_union(num_groups, 0);
    for (int p = 0; p < int(ports.size()); ++p) {
        const Sig &s = ports[size_t(p)];
        if (!s.live()) continue;
        copies[size_t(s.group)]++;
        reach_union[size_t(s.group)] |= topo_.reachable(next_stage, p);
    }

    for (size_t g = 0; g < num_groups; ++g) {
        if (copies[g] == 0) return false;
        if ((reach_union[g] & ctx.dest_masks[g]) != ctx.dest_masks[g]) {
            return false;
        }
        // Single-dest groups must still be able to merge down to one copy.
        if (ctx.dest_masks[g] == (ctx.dest_masks[g] & -ctx.dest_masks[g])) {
            if ((int64_t{1} << remaining) < copies[g]) return false;
        }
    }
    return true;
}

bool
BirrdRouter::finalOk(const SearchCtx &ctx, const std::vector<Sig> &ports) const
{
    uint64_t satisfied = 0;
    for (int p = 0; p < int(ports.size()); ++p) {
        const Sig &s = ports[size_t(p)];
        if (!s.live()) continue;
        const uint64_t bit = uint64_t{1} << p;
        if (!(ctx.dest_masks[size_t(s.group)] & bit)) {
            return false; // stray partial sum at a non-destination port
        }
        if (s.count != ctx.group_sizes[size_t(s.group)]) {
            return false; // incomplete reduction delivered
        }
        satisfied |= bit;
    }
    uint64_t all = 0;
    for (uint64_t m : ctx.dest_masks) all |= m;
    return satisfied == all;
}

bool
BirrdRouter::dfs(SearchCtx &ctx, int stage, int sw, std::vector<Sig> &ports)
{
    if (ctx.nodes++ > kNodeBudget) return false;

    if (stage == topo_.numStages()) {
        return finalOk(ctx, ports);
    }
    if (sw == topo_.switchesPerStage()) {
        std::vector<Sig> next(ports.size());
        for (int p = 0; p < int(ports.size()); ++p) {
            next[size_t(topo_.wire(stage, p))] = ports[size_t(p)];
        }
        if (!boundaryOk(ctx, stage + 1, next)) return false;
        return dfs(ctx, stage + 1, 0, next);
    }

    const Sig a = ports[size_t(2 * sw)];
    const Sig b = ports[size_t(2 * sw + 1)];

    struct Option
    {
        EggConfig cfg;
        Sig l, r;
    };
    Option options[5];
    int num_options = 0;
    auto push = [&](EggConfig cfg, Sig l, Sig r) {
        options[num_options++] = Option{cfg, l, r};
    };

    const Sig none{};
    if (!a.live() && !b.live()) {
        push(EggConfig::Pass, none, none);
    } else if (a.live() && !b.live()) {
        push(EggConfig::Pass, a, none);
        push(EggConfig::Swap, none, a);
        if (ctx.req->allow_broadcast &&
            a.count == ctx.group_sizes[size_t(a.group)]) {
            push(EggConfig::DupLeft, a, a);
        }
    } else if (!a.live() && b.live()) {
        push(EggConfig::Swap, b, none);
        push(EggConfig::Pass, none, b);
        if (ctx.req->allow_broadcast &&
            b.count == ctx.group_sizes[size_t(b.group)]) {
            push(EggConfig::DupRight, b, b);
        }
    } else if (a.group == b.group) {
        const Sig merged{a.group, a.count + b.count};
        push(EggConfig::AddLeft, merged, none);
        push(EggConfig::AddRight, none, merged);
        // Delayed merging (or multicast split) can be necessary.
        push(EggConfig::Pass, a, b);
        push(EggConfig::Swap, b, a);
        if (ctx.req->allow_broadcast) {
            push(EggConfig::AddBoth, merged, merged);
        }
    } else {
        push(EggConfig::Pass, a, b);
        push(EggConfig::Swap, b, a);
    }

    auto viable = [&](const Option &o) {
        const int np_l = topo_.wire(stage, 2 * sw);
        const int np_r = topo_.wire(stage, 2 * sw + 1);
        if (o.l.live() &&
            !(topo_.reachable(stage + 1, np_l) &
              ctx.dest_masks[size_t(o.l.group)])) {
            return false;
        }
        if (o.r.live() &&
            !(topo_.reachable(stage + 1, np_r) &
              ctx.dest_masks[size_t(o.r.group)])) {
            return false;
        }
        return true;
    };

    int order[5] = {0, 1, 2, 3, 4};
    if (ctx.randomized && num_options > 1) {
        for (int i = num_options - 1; i > 0; --i) {
            std::swap(order[i], order[int(ctx.rng->below(uint64_t(i + 1)))]);
        }
    }

    for (int oi = 0; oi < num_options; ++oi) {
        const Option &o = options[order[oi]];
        if (!viable(o)) continue;
        ports[size_t(2 * sw)] = o.l;
        ports[size_t(2 * sw + 1)] = o.r;
        ctx.config[size_t(stage)][size_t(sw)] = o.cfg;
        if (dfs(ctx, stage, sw + 1, ports)) return true;
        if (ctx.nodes > kNodeBudget) break;
    }
    ports[size_t(2 * sw)] = a;
    ports[size_t(2 * sw + 1)] = b;
    return false;
}

bool
BirrdRouter::verify(const BirrdTopology &topo, const BirrdConfigWord &config,
                    const RouteRequest &req)
{
    BirrdNetwork net(topo.numInputs());
    std::vector<PortValue> inputs(static_cast<size_t>(topo.numInputs()));
    std::vector<int64_t> expected(req.dests_of_group.size(), 0);
    for (int i = 0; i < topo.numInputs(); ++i) {
        const int g = req.group_of_input[size_t(i)];
        if (g < 0) continue;
        const int64_t v = (int64_t{1} << (i % 60)) + i;
        inputs[size_t(i)] = v;
        expected[size_t(g)] += v;
    }
    const auto outputs = net.evaluate(config, inputs);
    for (size_t g = 0; g < req.dests_of_group.size(); ++g) {
        for (int d : req.dests_of_group[g]) {
            if (!outputs[size_t(d)] || *outputs[size_t(d)] != expected[g]) {
                return false;
            }
        }
    }
    return true;
}

} // namespace feather
