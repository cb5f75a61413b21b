/**
 * @file
 * feather_benchmark: runs one benchmark workload in this process.
 *
 *   feather_benchmark --workload W [--seed S] [--seconds T] [--trace FILE]
 *
 * Set-up (input generation from the seed, construction, one untimed
 * warm-up op) runs once. The workload then runs one untimed warm-up round
 * and as many timed whole rounds as fit in T seconds, and at least one.
 * Every timed interval is scaled to the reference speed by the yardstick
 * (yardstick.hpp). Without --trace the run sets up 8 more times between
 * rounds, spread through the window; setup_s is the median of the 9, and
 * the run reports the end-to-end metrics. With --trace it runs split
 * rounds for T seconds, recording spans in every second one (trace.*
 * metrics), then one round of every other workload plus the sim and pool
 * probes for the per-layer metrics, and writes every span as Chrome
 * trace-event JSON to FILE.
 *
 * The last stdout line is one JSON object: workload, seed, inputs_sha256,
 * correct, attempted, failed, violations, metrics {name: {value, unit}},
 * and self_s (span self time per name, traced runs only). Exit status 0
 * when every check passed, 1 when one failed, 2 on a usage error.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "layers.hpp"
#include "sha256.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "yardstick.hpp"

using namespace bench;

namespace {

/** Set-ups spread through an untraced run, after the first. */
constexpr size_t kSpreadSetups = 8;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    uint64_t seconds = 10;
    std::string trace;
};

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args->workload = value;
        } else if (flag == "--seed") {
            if (!feather::parseUint(value, &args->seed)) return false;
        } else if (flag == "--seconds") {
            if (!feather::parsePositive(value, &args->seconds, 3600)) {
                return false;
            }
        } else if (flag == "--trace") {
            args->trace = value;
        } else {
            return false;
        }
    }
    return makeWorkload(args->workload) != nullptr;
}

/** Peak resident set of this process in MB since the last resetPeakRss():
 *  VmHWM (ru_maxrss can carry the launcher's peak across a vfork+exec, and
 *  cannot be reset). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.compare(0, 6, "VmHWM:") == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

/**
 * Start a fresh peak: hand freed heap pages back to the kernel, then reset
 * VmHWM to the current resident set. A serving round's peak depends on how
 * far the pool runs ahead of the DES, which depends on the host's speed at
 * the moment: the process-wide peak of serve_graph_fleet read 105 MB in
 * most runs and 114-126 MB in a third of them. The median round peak stays
 * at 105.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * The timed rounds of one time window. Every figure is kept twice: as
 * measured ("plain", the specification's estimators) and at the reference
 * speed (yardstick.hpp). The end-to-end metrics are the reference-speed
 * ones; benchmark/README.md compares the two.
 */
struct Window
{
    uint64_t rounds = 0;    ///< timed rounds
    uint64_t ops = 0;       ///< timed ops
    uint64_t attempted = 0; ///< ops, the warm-up round's too
    uint64_t failed = 0;
    double wall_s = 0.0;                     ///< plain, summed over rounds
    std::vector<double> round_ref_ops_per_s; ///< at the reference speed
    std::vector<double> op_ms;               ///< every timed op's, plain
    /** Per round, each op's time at the reference speed, in op order. */
    std::vector<std::vector<double>> round_ref_op_ms;
    std::vector<double> op_scale;      ///< every timed op's
    std::vector<double> round_peak_mb; ///< each round's peak resident set
    Round first; ///< the first timed round (deterministic figures, layers)

    void
    add(Round &&r)
    {
        ++rounds;
        ops += r.ops;
        attempted += r.ops;
        failed += r.failed;
        wall_s += r.wall_s;
        round_ref_ops_per_s.push_back(double(r.ops) / r.ref_wall_s);
        std::vector<double> ref_ms;
        for (size_t i = 0; i < r.op_ms.size(); ++i) {
            op_ms.push_back(r.op_ms[i]);
            ref_ms.push_back(r.op_ms[i] * r.op_scale[i]);
        }
        round_ref_op_ms.push_back(std::move(ref_ms));
        op_scale.insert(op_scale.end(), r.op_scale.begin(), r.op_scale.end());
        if (rounds == 1) first = std::move(r);
    }

    /**
     * Each op's mean time over the rounds, at the reference speed. Every
     * round replays the same ops in the same order, so op i of one round
     * is op i of every other (a round with another op count has already
     * failed the determinism check and is left out).
     *
     * The mean, because a serving round can only be scaled as a whole:
     * its ops ran on vCPUs that were fast or slow at the time, so a scaled
     * op reads low or high, and a percentile of the pooled ops tips to one
     * side or the other with the host's share of slow time. The mean over
     * an op's repeats does not.
     */
    std::vector<double>
    meanRefOpMs() const
    {
        const size_t n = round_ref_op_ms.front().size();
        std::vector<double> sum(n, 0.0);
        size_t used = 0;
        for (const std::vector<double> &r : round_ref_op_ms) {
            if (r.size() != n) continue;
            for (size_t i = 0; i < n; ++i) sum[i] += r[i];
            ++used;
        }
        for (double &s : sum) s /= double(used);
        return sum;
    }
};

/**
 * Run whole rounds for @p seconds into @p untraced. With @p traced, rounds
 * take turns in the order untraced, traced, traced, untraced, ...: the
 * traced half records spans, and each traced round has an untraced
 * neighbour run right next to it.
 *
 * @p setup, when set, is called kSpreadSetups times between rounds, at
 * even steps through the window, so that the set-ups see more than one
 * moment of the host.
 */
void
measure(Workload &w, bool split, double seconds,
        const std::function<void()> &setup, Window *untraced, Window *traced,
        std::vector<std::string> *violations)
{
    const size_t turns = traced ? 2 : 1;
    size_t setups = setup ? 0 : kSpreadSetups;
    const int64_t t0 = nowNs();
    // The first round warms the process up (allocator arenas, first-touch
    // pages): a serving round runs 20-50% slower the first time. It is
    // checked but not timed, and every later round must repeat its
    // deterministic outputs.
    Round warm = w.round(split);
    untraced->attempted += warm.ops;
    untraced->failed += warm.failed;
    violations->insert(violations->end(), warm.violations.begin(),
                       warm.violations.end());
    // Whole pairs only, and at least one. Another round starts only while
    // a round of the mean length so far still ends inside the window.
    for (uint64_t k = 0;; ++k) {
        const double elapsed = double(nowNs() - t0) * 1e-9;
        if (k % turns == 0 && k >= turns &&
            elapsed + elapsed / double(k + 1) > seconds) {
            break;
        }
        while (k % turns == 0 && setups < kSpreadSetups &&
               elapsed >= double(setups + 1) * seconds /
                              double(kSpreadSetups + 1)) {
            setup();
            ++setups;
        }
        const bool is_traced = traced && (k % 2 != (k / 2) % 2);
        Window &win = is_traced ? *traced : *untraced;
        Tracer::get().setEnabled(is_traced);
        resetPeakRss();
        Round r = w.round(split);
        win.round_peak_mb.push_back(peakRssMb());
        Tracer::get().setEnabled(false);
        if (r.signature != warm.signature || r.sim_cycles != warm.sim_cycles) {
            ++r.failed;
            r.violations.push_back(feather::strCat(
                "round ", k, ": deterministic outputs differ from the "
                "warm-up round"));
        }
        violations->insert(violations->end(), r.violations.begin(),
                           r.violations.end());
        win.add(std::move(r));
    }
    for (; setups < kSpreadSetups; ++setups) setup();
}

/** One round of each workload for the layer groups it owns; workload
 *  @p own takes its groups from @p own_round, a split round it ran. */
void
layerProbes(uint64_t seed, const std::string &own, const Round &own_round,
            std::vector<Metric> *metrics, uint64_t *failed,
            std::vector<std::string> *violations)
{
    for (const std::string &name : workloadNames()) {
        if (name == own) {
            metrics->insert(metrics->end(), own_round.layer.begin(),
                            own_round.layer.end());
            continue;
        }
        std::unique_ptr<Workload> w = makeWorkload(name);
        std::string canonical, err;
        if (!w->generate(seed, &canonical, &err)) {
            ++*failed;
            violations->push_back(name + ": " + err);
            continue;
        }
        w->warmUp();
        Round r = w->round(true);
        *failed += r.failed;
        metrics->insert(metrics->end(), r.layer.begin(), r.layer.end());
        violations->insert(violations->end(), r.violations.begin(),
                           r.violations.end());
    }
    metrics->push_back({"serve.pool_create_us", poolCreateUs(), "us"});
    std::vector<std::string> sim_violations;
    const std::vector<Metric> sim = simLayerMetrics(seed, &sim_violations);
    metrics->insert(metrics->end(), sim.begin(), sim.end());
    *failed += sim_violations.size();
    violations->insert(violations->end(), sim_violations.begin(),
                       sim_violations.end());
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::string names;
        for (const std::string &n : workloadNames()) names += " " + n;
        std::fprintf(stderr,
                     "usage: feather_benchmark --workload W [--seed S] "
                     "[--seconds T] [--trace FILE]\nworkloads:%s\n",
                     names.c_str());
        return 2;
    }

    std::vector<std::string> violations;
    uint64_t failed = 0;
    std::string canonical;
    std::vector<double> setup_s;
    // One set-up: generate the inputs, construct, run the warm-up op. Its
    // time is taken at the reference speed, as every op's is.
    const auto setUp = [&](std::string *err) -> std::unique_ptr<Workload> {
        const double scale = kYardstickRefS / yardstickS();
        const int64_t t0 = nowNs();
        std::unique_ptr<Workload> fresh = makeWorkload(args.workload);
        std::string text;
        if (!fresh->generate(args.seed, &text, err)) return nullptr;
        fresh->warmUp();
        setup_s.push_back(double(nowNs() - t0) * 1e-9 * scale);
        if (!canonical.empty() && text != canonical) {
            ++failed;
            violations.push_back("input generation is not deterministic");
        }
        canonical = std::move(text);
        return fresh;
    };
    std::string err;
    const std::unique_ptr<Workload> w = setUp(&err);
    if (!w) {
        std::fprintf(stderr, "feather_benchmark: %s\n", err.c_str());
        return 1;
    }

    std::vector<Metric> metrics;
    std::map<std::string, double> self_s;
    uint64_t attempted = 0;
    if (args.trace.empty()) {
        Window win;
        const auto again = [&]() {
            if (!setUp(&err)) {
                ++failed;
                violations.push_back("set-up failed: " + err);
            }
        };
        measure(*w, false, double(args.seconds), again, &win, nullptr,
                &violations);
        failed += win.failed;
        attempted = win.attempted;
        const std::vector<double> op_ms = win.meanRefOpMs();
        metrics = {
            {"ops_per_s", percentile(win.round_ref_ops_per_s, 50), "ops/s"},
            {"op_ms_p50", percentile(op_ms, 50), "ms"},
            {"op_ms_p90", percentile(op_ms, 90), "ms"},
            {"setup_s", percentile(setup_s, 50), "s"},
            {"peak_rss_mb", percentile(win.round_peak_mb, 50), "MB"},
            {"sim_cycles", double(win.first.sim_cycles), "cycles"},
        };
        metrics.insert(metrics.end(), win.first.extra.begin(),
                       win.first.extra.end());
        // Not gated: the plain figures, and how fast the host ran against
        // the reference (1 = the yardstick took kYardstickRefS).
        metrics.push_back(
            {"plain_ops_per_s", double(win.ops) / win.wall_s, "ops/s"});
        metrics.push_back({"plain_op_ms_p50", percentile(win.op_ms, 50), "ms"});
        metrics.push_back({"plain_op_ms_p90", percentile(win.op_ms, 90), "ms"});
        metrics.push_back({"host_speed", percentile(win.op_scale, 50), "x"});
        metrics.push_back({"rounds", double(win.rounds), "count"});
        metrics.push_back({"op_samples", double(win.ops), "count"});
        metrics.push_back({"setups", double(setup_s.size()), "count"});
    } else {
        Window untraced, traced;
        measure(*w, true, double(args.seconds), {}, &untraced, &traced,
                &violations);
        failed += untraced.failed + traced.failed;
        attempted = untraced.attempted + traced.attempted;
        const std::map<std::string, double> op_self =
            Tracer::get().selfSeconds();
        const std::map<std::string, double> op_total =
            Tracer::get().totalSeconds();
        const double op_wall = op_total.count("op") ? op_total.at("op") : 0.0;
        metrics.push_back({"trace.op_self_frac",
                           op_wall > 0 ? op_self.at("op") / op_wall : 0.0,
                           "fraction"});
        // Each traced round against its untraced neighbour: the median
        // ratio of neighbours cancels host drift and the order of the two.
        std::vector<double> ratios;
        for (size_t i = 0; i < traced.round_ref_ops_per_s.size(); ++i) {
            ratios.push_back(traced.round_ref_ops_per_s[i] /
                             untraced.round_ref_ops_per_s[i]);
        }
        metrics.push_back({"trace.overhead_frac",
                           1.0 - percentile(ratios, 50), "fraction"});
        Tracer::get().setEnabled(true);
        layerProbes(args.seed, args.workload, traced.first, &metrics, &failed,
                    &violations);
        self_s = Tracer::get().selfSeconds();
        std::ofstream file(args.trace, std::ios::binary);
        file << Tracer::get().chromeJson();
        if (!file) {
            ++failed;
            violations.push_back("cannot write " + args.trace);
        }
    }

    const bool correct = failed == 0 && violations.empty();
    for (const std::string &v : violations) {
        std::fprintf(stderr, "violation: %s\n", v.c_str());
    }
    std::string json = "{\"workload\":\"" + args.workload +
                       "\",\"seed\":" + std::to_string(args.seed) +
                       ",\"inputs_sha256\":\"" + sha256Hex(canonical) +
                       "\",\"correct\":" + (correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) +
                       ",\"violations\":[";
    for (size_t i = 0; i < violations.size(); ++i) {
        json += (i ? ",\"" : "\"") + feather::jsonEscape(violations[i]) + "\"";
    }
    json += "],\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" +
                number(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
                "\"}";
    }
    json += "},\"self_s\":{";
    bool first = true;
    for (const auto &[name, s] : self_s) {
        json += (first ? "\"" : ",\"") + name + "\":" + number(s);
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
