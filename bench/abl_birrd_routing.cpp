/**
 * @file
 * Ablation / microbenchmark: BIRRD routing cost (google-benchmark).
 *
 * Measures the offline config-generation latency of the path-search router
 * for the pattern classes FEATHER emits, the cache-hit fast path (a
 * lookup returning a pointer into the cache), and the brute-force
 * fallback on small networks. Prints router statistics (path-search vs
 * fallback solve counts) at the end.
 */

#include <benchmark/benchmark.h>

#include <numeric>

#include "common/rng.hpp"
#include "noc/router.hpp"

using namespace feather;

namespace {

void
BM_RouteUniformReduction(benchmark::State &state)
{
    const int n = int(state.range(0));
    const int g = int(state.range(1));
    const BirrdTopology topo(n);
    BirrdRouter router(topo, 42);

    std::vector<int> groups(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) groups[size_t(i)] = i / g;
    const int num_groups = n / g;
    int rot = 0;
    for (auto _ : state) {
        // Rotate destinations each iteration to defeat the config cache.
        std::vector<int> dests(static_cast<size_t>(num_groups));
        for (int j = 0; j < num_groups; ++j) {
            dests[size_t(j)] = (j + rot) % num_groups;
        }
        rot = (rot + 1) % num_groups;
        const BirrdConfigWord *cfg =
            router.route(RouteRequest::reduction(groups, dests));
        benchmark::DoNotOptimize(cfg);
    }

    // Deterministic search-effort counter for the CI perf gate: nodes a
    // fresh router explores on the canonical (rot=0) request. Machine- and
    // iteration-count-independent, unlike the wall time above.
    BirrdRouter probe(topo, 42);
    std::vector<int> dests(static_cast<size_t>(num_groups));
    std::iota(dests.begin(), dests.end(), 0);
    const BirrdConfigWord *cfg =
        probe.route(RouteRequest::reduction(groups, dests));
    benchmark::DoNotOptimize(cfg);
    state.counters["search_nodes"] = double(probe.stats().nodes_explored);
}

void
BM_RouteCacheHit(benchmark::State &state)
{
    const int n = int(state.range(0));
    const BirrdTopology topo(n);
    BirrdRouter router(topo, 42);
    std::vector<int> dest(static_cast<size_t>(n));
    std::iota(dest.begin(), dest.end(), 0);
    const auto req = RouteRequest::permutation(dest);
    (void)router.route(req); // warm the cache
    for (auto _ : state) {
        const BirrdConfigWord *cfg = router.route(req);
        benchmark::DoNotOptimize(cfg);
    }
}

void
BM_RouteFallbackDfs(benchmark::State &state)
{
    // Path search disabled: exercise the brute-force fallback (paper's
    // "brute force all possible configurations") on a small network.
    const BirrdTopology topo(8);
    BirrdRouter router(topo, 42);
    router.setUsePathSearch(false);
    std::vector<int> groups = {0, 0, 1, 1, 2, 2, 3, 3};
    int rot = 0;
    for (auto _ : state) {
        std::vector<int> dests = {(0 + rot) % 8, (2 + rot) % 8,
                                  (4 + rot) % 8, (6 + rot) % 8};
        rot = (rot + 1) % 8;
        const BirrdConfigWord *cfg =
            router.route(RouteRequest::reduction(groups, dests));
        benchmark::DoNotOptimize(cfg);
    }

    // Deterministic fallback-effort counter (see BM_RouteUniformReduction).
    BirrdRouter probe(topo, 42);
    probe.setUsePathSearch(false);
    const BirrdConfigWord *cfg =
        probe.route(RouteRequest::reduction(groups, {0, 2, 4, 6}));
    benchmark::DoNotOptimize(cfg);
    state.counters["search_nodes"] = double(probe.stats().nodes_explored);
}

void
BM_BirrdEvaluate(benchmark::State &state)
{
    // Per-cycle functional evaluation cost of the reference network path.
    const int n = int(state.range(0));
    BirrdNetwork net(n);
    const auto cfg = passThroughConfig(net.topology());
    std::vector<PortValue> in(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) in[size_t(i)] = i * 3 + 1;
    for (auto _ : state) {
        auto out = net.evaluate(cfg, in);
        benchmark::DoNotOptimize(out);
    }
}

BENCHMARK(BM_RouteUniformReduction)
    ->Args({16, 4})
    ->Args({16, 16})
    ->Args({32, 4})
    ->Args({64, 8});
BENCHMARK(BM_RouteCacheHit)->Arg(16)->Arg(32);
BENCHMARK(BM_RouteFallbackDfs);
BENCHMARK(BM_BirrdEvaluate)->Arg(16)->Arg(32);

} // namespace

BENCHMARK_MAIN();
