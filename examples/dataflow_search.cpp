/**
 * @file
 * Layoutloop driver: co-search (dataflow, layout) for a layer you describe
 * on the command line and print the top choices by EDP, plus what the same
 * layer costs on the fixed-dataflow baselines — then cross-check the
 * dataflow families on the cycle-accurate simulator via the serve batch
 * engine: each (dataflow x array-size) point is one engine job, executed
 * concurrently with shared plan caching and verified bit-exactly against
 * the reference operators.
 *
 *   $ ./dataflow_search [C H W M R stride pad]
 *   $ ./dataflow_search 256 14 14 256 3 1 1
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "baselines/arch_zoo.hpp"
#include "common/table.hpp"
#include "layoutloop/mapper.hpp"
#include "serve/engine.hpp"
#include "sim/driver.hpp"

using namespace feather;

namespace {

/**
 * The CLI layer, capped to a size the cycle simulator sweeps in seconds
 * (the analytic mapper above handles the full-size layer; the sim sweep
 * is a bit-exact cross-check of the dataflow families, not a re-search).
 */
LayerSpec
simSizedLayer(const LayerSpec &layer)
{
    const ConvShape &c = layer.conv;
    return sim::convLayer2d("sim_check", std::min<int64_t>(c.c, 32),
                            std::min<int64_t>(c.h, 14),
                            std::min<int64_t>(c.w, 14),
                            std::min<int64_t>(c.m, 32), c.r, c.s, c.stride,
                            c.pad);
}

} // namespace

int
main(int argc, char **argv)
{
    LayerSpec layer = sim::convLayer("cli_layer", 256, 14, 256, 3, 1, 1);
    if (argc == 8) {
        layer = sim::convLayer2d("cli_layer", std::atoll(argv[1]),
                                 std::atoll(argv[2]), std::atoll(argv[3]),
                                 std::atoll(argv[4]), std::atoll(argv[5]),
                                 std::atoll(argv[5]), std::atoll(argv[6]),
                                 std::atoll(argv[7]));
    } else if (argc != 1) {
        std::fprintf(stderr, "usage: %s [C H W M R stride pad]\n", argv[0]);
        return 2;
    }
    std::printf("layer: %s\n\n", layer.conv.toString().c_str());

    // FEATHER: full (dataflow, layout) co-search; show the per-layout best
    // to expose the interaction the paper motivates.
    const ArchSpec arch = featherArch(WorkloadKind::Conv);
    const Mapper mapper(arch);
    std::printf("FEATHER 16x16 (dataflow, layout) co-search, best per "
                "layout:\n");
    Table t({"layout", "mapping", "util", "slowdown", "cycles", "EDP rank"});
    struct Entry
    {
        Layout layout;
        EvalResult r;
    };
    std::vector<Entry> entries;
    for (const Layout &layout : arch.layouts) {
        ArchSpec one = arch;
        one.layouts = {layout};
        entries.push_back({layout, Mapper(one).searchLayer(layer)});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.r.edp() < b.r.edp();
              });
    int rank = 0;
    for (const Entry &e : entries) {
        ++rank;
        t.addRow({e.layout.toString(), e.r.mapping.toString(),
                  fmtPercent(e.r.practical_utilization),
                  fmtDouble(e.r.slowdown, 2),
                  std::to_string(e.r.total_cycles), std::to_string(rank)});
    }
    std::printf("%s\n", t.toString().c_str());

    // Baselines on the same layer.
    Table b({"design", "util", "slowdown", "cycles", "vs FEATHER"});
    const EvalResult best = mapper.searchLayer(layer);
    for (const ArchSpec &a :
         {nvdlaLike(WorkloadKind::Conv), eyerissLike(WorkloadKind::Conv),
          sigmaLikeFixed(WorkloadKind::Conv, "HWC_C32"),
          featherArch(WorkloadKind::Conv)}) {
        const EvalResult r = Mapper(a).searchLayer(layer);
        b.addRow({a.name, fmtPercent(r.practical_utilization),
                  fmtDouble(r.slowdown, 2), std::to_string(r.total_cycles),
                  fmtRatio(double(r.total_cycles) /
                           double(best.total_cycles))});
    }
    std::printf("%s\n", b.toString().c_str());

    // Cycle-sim cross-check: sweep the dataflow families over two array
    // sizes as one multi-threaded engine batch (every job bit-exact
    // against the reference operators). The layer pins no dataflow: every
    // sweep point overrides it.
    sim::ModelGraph scenario;
    scenario.name = "sim_check";
    scenario.summary = "dataflow_search cycle-sim cross-check";
    scenario.layers = {{simSizedLayer(layer)}};
    scenario.default_aw = 8;
    scenario.default_ah = 8;

    serve::SweepSpec sweep;
    sweep.inline_scenario = scenario;
    sweep.dataflows = {"ws", "cp", "wp"};
    sweep.arrays = {{8, 8}, {16, 16}};

    serve::BatchOptions bopts;
    bopts.num_threads = 4;
    serve::BatchEngine engine(bopts);
    std::vector<std::string> skipped;
    std::string error;
    const std::optional<serve::BatchReport> report =
        engine.sweep(sweep, &skipped, &error);
    if (!report) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    std::printf("cycle-sim cross-check of %s on the serve engine "
                "(%zu jobs, %llu plan-cache hits):\n",
                scenario.layers.front().spec.conv.toString().c_str(),
                report->jobs.size(),
                (unsigned long long)report->cache.hits);
    for (const std::string &why : skipped) {
        std::printf("skipped %s\n", why.c_str());
    }
    std::printf("%s", report->summaryTable().c_str());
    return report->allOk() ? 0 : 1;
}
