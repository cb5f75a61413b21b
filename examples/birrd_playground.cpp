/**
 * @file
 * BIRRD playground: build an 8-input BIRRD, request a reduction/reordering
 * pattern, print the per-stage Egg configuration the router generates, and
 * push values through the network to show the sums arriving at their
 * re-targeted banks.
 *
 *   $ ./birrd_playground
 */

#include <cstdio>

#include "noc/router.hpp"

using namespace feather;

namespace {

void
showPattern(const char *title, BirrdRouter &router, const BirrdTopology &topo,
            const RouteRequest &req)
{
    std::printf("\n--- %s ---\n", title);
    std::printf("inputs : ");
    for (int g : req.group_of_input) {
        if (g < 0) {
            std::printf("  . ");
        } else {
            std::printf(" g%d ", g);
        }
    }
    std::printf("\ndests  : ");
    for (size_t g = 0; g < req.dests_of_group.size(); ++g) {
        std::printf("g%zu->{", g);
        for (size_t d = 0; d < req.dests_of_group[g].size(); ++d) {
            std::printf("%s%d", d ? "," : "", req.dests_of_group[g][d]);
        }
        std::printf("} ");
    }
    std::printf("\n");

    const BirrdConfigWord *cfg = router.route(req);
    if (!cfg) {
        std::printf("routing failed!\n");
        return;
    }
    for (size_t s = 0; s < cfg->size(); ++s) {
        std::printf("stage %zu: ", s);
        for (const EggConfig &e : (*cfg)[s]) {
            std::printf("%-3s ", toString(e).c_str());
        }
        std::printf("\n");
    }

    // Push the values 1, 2, 4, ..., through and show the outputs.
    BirrdNetwork net(topo.numInputs());
    std::vector<PortValue> in(size_t(topo.numInputs()));
    for (int i = 0; i < topo.numInputs(); ++i) {
        if (req.group_of_input[size_t(i)] >= 0) in[size_t(i)] = 1 << i;
    }
    const auto out = net.evaluate(*cfg, in);
    std::printf("outputs: ");
    for (int i = 0; i < topo.numInputs(); ++i) {
        if (out[size_t(i)]) {
            std::printf("[%d]=%lld ", i, (long long)*out[size_t(i)]);
        }
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    const BirrdTopology topo(8);
    BirrdRouter router(topo);
    std::printf("8-input BIRRD: %d stages x %d switches, %d config bits "
                "per cycle\n",
                topo.numStages(), topo.switchesPerStage(),
                topo.configBits());

    // 1. Pure reordering: reverse the banks (a layout transpose).
    showPattern("pure reorder: reverse all 8 lanes", router, topo,
                RouteRequest::permutation({7, 6, 5, 4, 3, 2, 1, 0}));

    // 2. Fig. 9-style 8:4 reduction with interleaved groups.
    showPattern("4 interleaved 2:1 reductions", router, topo,
                RouteRequest::reduction({0, 1, 0, 1, 2, 3, 2, 3},
                                        {0, 1, 2, 3}));

    // 3. The same reduction re-targeted to different banks: RIR's layout
    //    switch is literally a different dest vector.
    showPattern("same reduction, banks rotated (RIR re-target)", router,
                topo,
                RouteRequest::reduction({0, 1, 0, 1, 2, 3, 2, 3},
                                        {5, 6, 7, 4}));

    // 4. Uneven groups (Fig. 10 workload C): 3:1 + 5:1.
    showPattern("uneven groups 3:1 and 5:1", router, topo,
                RouteRequest::reduction({0, 0, 0, 1, 1, 1, 1, 1}, {6, 1}));

    // 5. Broadcast extension: one full reduction duplicated to two banks.
    RouteRequest bc;
    bc.group_of_input = {0, 0, 0, 0, 0, 0, 0, 0};
    bc.dests_of_group = {{1, 5}};
    bc.allow_broadcast = true;
    showPattern("8:1 reduction broadcast to banks 1 and 5", router, topo,
                bc);

    std::printf("\nrouter stats: %lld requests, %lld cache hits, %lld via "
                "path search, %lld via fallback\n",
                (long long)router.stats().requests,
                (long long)router.stats().cache_hits,
                (long long)router.stats().solved_path_search,
                (long long)router.stats().solved_fallback);
    return 0;
}
