/**
 * @file
 * Fig. 10: per-layer flexible dataflows in FEATHER vs the fixed-dataflow
 * weight-stationary systolic array, on four irregular GEMM workloads, plus
 * the "change oAct layout" variant that retargets the same reduction to
 * different StaB banks purely by reconfiguring BIRRD.
 *
 * The cycle-sim sweep runs as one serve::BatchEngine batch: each workload
 * (and each oAct-layout retarget) is a JobSpec, executed concurrently on
 * the engine's thread pool with the per-(layer, aw, ah) planning artifacts
 * shared through its PlanCache.
 *
 * Expected shape (paper): the SA's utilization collapses on skewed shapes
 * (50% / 75% / 25%) while FEATHER's flexible reduction keeps near-full
 * utilization, and the layout re-target costs zero extra cycles (same
 * route count, different bank assignment).
 */

#include <cstdio>

#include "baselines/arch_zoo.hpp"
#include "baselines/systolic_array.hpp"
#include "common/table.hpp"
#include "layoutloop/mapper.hpp"
#include "serve/engine.hpp"
#include "sim/driver.hpp"

using namespace feather;

namespace {

/**
 * One Fig. 10 GEMM as an inline scenario for the batch engine. The M
 * (streaming) dimension is scaled up so the measurement reflects the
 * steady state, as the paper's Fig. 10 utilizations do — the raw workloads
 * are so small that warmup/fill would dominate any device.
 */
serve::JobSpec
gemmJob(const char *name, GemmShape g, const std::string &out_layout)
{
    sim::ModelGraph s;
    s.name = name;
    s.summary = "fig10 irregular GEMM";
    s.layers = {{sim::gemmLayer(name, g.m * 32, g.n, g.k),
                 sim::DataflowKind::Canonical, 0.01f}};
    s.default_aw = 4;
    s.default_ah = 4;

    serve::JobSpec job;
    job.name = name;
    job.inline_scenario = std::move(s);
    job.opts.out_layout = out_layout;
    job.explicit_seed = 7;
    return job;
}

} // namespace

int
main()
{
    std::printf("=== Fig. 10: FEATHER vs 4x4 systolic array on irregular "
                "GEMMs ===\n");

    struct Work
    {
        const char *name;
        GemmShape shape;
    };
    const std::vector<Work> works = {
        {"A (M8 K8 N4)", {8, 4, 8}},
        {"B (M6 K2 N8)", {6, 8, 2}},
        {"C (M8 K12 N3)", {8, 3, 12}},
        {"D (M4 K16 N1)", {4, 1, 16}},
    };

    // All six cycle sims (four workloads + two oAct retargets of workload
    // A) as one engine batch.
    std::vector<serve::JobSpec> jobs;
    for (const Work &w : works) {
        jobs.push_back(gemmJob(w.name, w.shape, "concordant"));
    }
    jobs.push_back(gemmJob("A oActs MK_K4", {8, 4, 8}, "MK_K4"));
    jobs.push_back(gemmJob("A oActs MK_M4", {8, 4, 8}, "MK_M4"));

    serve::BatchOptions bopts;
    bopts.num_threads = 4;
    serve::BatchEngine engine(bopts);
    const serve::BatchReport report = engine.run(jobs);
    if (!report.allOk()) {
        std::fprintf(stderr, "numeric mismatch or failed job:\n%s",
                     report.summaryTable().c_str());
        return 1;
    }

    const Mapper feather_mapper(featherArch(WorkloadKind::Gemm, 4, 4));
    Table t({"workload", "SA util", "FEATHER util (analytic)",
             "FEATHER util (cycle sim)"});
    for (size_t i = 0; i < works.size(); ++i) {
        const Work &w = works[i];
        LayerSpec layer;
        layer.type = OpType::Gemm;
        layer.gemm = w.shape;
        const double sa = saGemmUtilization(w.shape, 4, 4);
        const EvalResult best = feather_mapper.searchLayer(layer);
        t.addRow({w.name, fmtPercent(sa),
                  fmtPercent(best.practical_utilization),
                  fmtPercent(report.jobs[i].utilization)});
    }
    std::printf("%s", t.toString().c_str());

    // Workload A with a re-targeted oAct layout: the reduction pattern is
    // identical, only the BIRRD destinations (StaB banks) change.
    std::printf("\n--- Workload A: change oAct layout via RIR ---\n");
    const serve::JobResult &k4 = report.jobs[works.size()];
    const serve::JobResult &m4 = report.jobs[works.size() + 1];
    std::printf("oActs as MK_K4: util %s | oActs as MK_M4: util %s -> "
                "identical cost, different banks (paper: zero-cost "
                "re-target)\n",
                fmtPercent(k4.utilization).c_str(),
                fmtPercent(m4.utilization).c_str());

    std::printf("\nplan cache: %llu hits, %llu misses over %zu jobs\n",
                (unsigned long long)report.cache.hits,
                (unsigned long long)report.cache.misses,
                report.jobs.size());
    std::printf("\nExpected shape: SA 100%%/50%%/75%%/25%% vs FEATHER "
                "near-full on all four (paper Fig. 10).\n");
    return 0;
}
