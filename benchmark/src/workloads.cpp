#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <optional>

#include "common/json_min.hpp"
#include "common/log.hpp"
#include "daemon/daemon.hpp"
#include "inputs.hpp"
#include "model/scheduler.hpp"
#include "serve/engine.hpp"
#include "trace.hpp"
#include "yardstick.hpp"

using feather::strCat;
namespace daemon = feather::daemon;
namespace model = feather::model;
namespace serve = feather::serve;
namespace sim = feather::sim;

namespace bench {

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = p / 100.0 * double(xs.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - double(lo));
}

namespace {

/** Mark one failed op with its reason. */
void
fail(Round *r, std::string why)
{
    ++r->failed;
    r->violations.push_back(std::move(why));
}

/** A closed loop's wall: the sum of its op times, plain and at the
 *  reference speed. The yardstick runs between ops and is not counted. */
void
sumOpTimes(Round *r)
{
    for (size_t i = 0; i < r->op_ms.size(); ++i) {
        r->wall_s += r->op_ms[i] * 1e-3;
        r->ref_wall_s += r->op_ms[i] * r->op_scale[i] * 1e-3;
    }
}

/** The "op" span of op @p index; spans opened inside carry its id. */
class OpScope
{
  public:
    explicit OpScope(size_t index) : span_(begin(index)) {}
    ~OpScope() { Tracer::get().setOp(-1); }

    /** Close the op; @return its wall time in milliseconds. */
    double stopMs() { return span_.stop() * 1e3; }

  private:
    static const char *
    begin(size_t index)
    {
        Tracer::get().setOp(int64_t(index));
        return "op";
    }

    Span span_;
};

// ---------------------------------------------------------------------------
// model_search
// ---------------------------------------------------------------------------

class ModelSearch : public Workload
{
  public:
    bool
    generate(uint64_t seed, std::string *canonical,
             std::string *error) override
    {
        if (!makeModelSearchInputs(seed, &in_, error)) return false;
        *canonical = in_.canonical;
        return true;
    }

    void
    warmUp() override
    {
        Round scratch;
        Split unused;
        runOp(in_.warmup, false, &scratch, &unused);
    }

    Round
    round(bool split) override
    {
        Round r;
        Split parts;
        std::vector<double> speedups;
        for (size_t i = 0; i < in_.ops.size(); ++i) {
            r.op_scale.push_back(kYardstickRefS / yardstickS());
            OpScope op(i);
            const double speedup = runOp(in_.ops[i], split, &r, &parts);
            r.op_ms.push_back(op.stopMs());
            if (speedup > 0) speedups.push_back(speedup);
        }
        sumOpTimes(&r);
        r.ops = in_.ops.size();

        double log_sum = 0.0;
        for (double s : speedups) log_sum += std::log(s);
        const double geomean =
            speedups.empty() ? 0.0 : std::exp(log_sum / double(speedups.size()));
        r.extra.push_back({"fig12_speedup", geomean, "x"});
        if (split) {
            const double total = parts.evaluate_s + parts.schedule_s;
            r.layer = {
                {"model.evaluate_ms_sum", parts.evaluate_s * 1e3, "ms"},
                {"model.schedule_ms_sum", parts.schedule_s * 1e3, "ms"},
                {"model.evaluate_share",
                 total > 0 ? parts.evaluate_s / total : 0.0, "fraction"},
                {"model.candidates", double(parts.candidates), "count"},
                {"model.search_nodes", double(parts.search_nodes), "count"},
                {"model.fig12_speedup", geomean, "x"},
            };
        }
        return r;
    }

  private:
    /** Layer breakdown accumulated over a split round. */
    struct Split
    {
        double evaluate_s = 0.0;
        double schedule_s = 0.0;
        int64_t candidates = 0;
        int64_t search_nodes = 0;
    };

    /** One op: compare(), or its parts when @p split. Checks the result
     *  and @return best-fixed / per-layer measured cycles (0 on error). */
    double
    runOp(const ModelOp &op, bool split, Round *r, Split *parts)
    {
        const model::ModelGraph &graph = in_.graphs[op.graph];
        model::SchedulerOptions opts;
        opts.num_threads = 1;
        opts.seed = op.data_seed;
        opts.engine = sim::EngineMode::Cycle;
        model::Scheduler sched(opts);
        std::string err;
        std::vector<model::ScheduleResult> results;
        if (!split) {
            const std::optional<model::ScheduleComparison> cmp =
                sched.compare(graph, model::SchedulePolicy(), &err);
            if (!cmp) {
                fail(r, strCat(graph.name, ": compare failed: ", err));
                return 0.0;
            }
            results = cmp->schedules;
        } else {
            std::optional<model::Evaluation> eval;
            {
                Span s("model.evaluate");
                eval = sched.evaluate(graph, &err);
                parts->evaluate_s += s.stop();
            }
            if (!eval) {
                fail(r, strCat(graph.name, ": evaluate failed: ", err));
                return 0.0;
            }
            for (const auto &layer : eval->layers) {
                parts->candidates += int64_t(layer.size());
            }
            // The policies compare() runs for a per-layer primary, in its
            // order; a fixed family that cannot map a layer is left out,
            // as compare() leaves it out.
            for (const char *name : {"per-layer", "greedy", "fixed:ws",
                                     "fixed:cp", "fixed:wp"}) {
                const model::SchedulePolicy policy =
                    *model::parseSchedule(name);
                std::optional<model::ScheduleResult> res;
                {
                    Span s("model.schedule");
                    res = sched.schedule(graph, *eval, policy, &err);
                    parts->schedule_s += s.stop();
                }
                if (res) {
                    parts->search_nodes += res->search_nodes;
                    results.push_back(std::move(*res));
                } else if (policy.kind != model::ScheduleKind::Fixed) {
                    fail(r, strCat(graph.name, ": ", name, " failed: ", err));
                    return 0.0;
                }
            }
        }
        return check(graph, results, r);
    }

    /** The correctness gate over one graph's schedules (per-layer first). */
    static double
    check(const model::ModelGraph &graph,
          const std::vector<model::ScheduleResult> &results, Round *r)
    {
        const model::ScheduleResult &primary = results.front();
        int64_t best_fixed = 0;
        bool ok = true;
        for (const model::ScheduleResult &s : results) {
            r->signature.push_back(s.cycles);
            r->signature.push_back(s.est_total);
            if (!s.bitExact()) {
                r->violations.push_back(strCat(graph.name, "/", s.schedule,
                                               ": not bit-exact (checked ",
                                               s.checked, ", mismatches ",
                                               s.mismatches, ")"));
                ok = false;
            }
            const bool fixed = s.schedule.compare(0, 6, "fixed:") == 0;
            if ((fixed || s.schedule == "greedy") &&
                primary.est_total > s.est_total) {
                r->violations.push_back(strCat(
                    graph.name, ": per-layer est_total ", primary.est_total,
                    " > ", s.schedule, " est_total ", s.est_total));
                ok = false;
            }
            if (fixed && (best_fixed == 0 || s.cycles < best_fixed)) {
                best_fixed = s.cycles;
            }
        }
        if (!ok) ++r->failed;
        r->sim_cycles += primary.cycles;
        return primary.cycles > 0 ? double(best_fixed) / double(primary.cycles)
                                  : 0.0;
    }

    ModelSearchInputs in_;
};

// ---------------------------------------------------------------------------
// sweep_analytic
// ---------------------------------------------------------------------------

class SweepAnalytic : public Workload
{
  public:
    bool
    generate(uint64_t seed, std::string *canonical, std::string *) override
    {
        in_ = makeSweepInputs(seed);
        *canonical = in_.canonical;
        return true;
    }

    void
    warmUp() override
    {
        Round scratch;
        Split unused;
        runOp(in_.warmup, false, &scratch, &unused);
    }

    Round
    round(bool split) override
    {
        Round r;
        Split parts;
        for (size_t i = 0; i < in_.ops.size(); ++i) {
            r.op_scale.push_back(kYardstickRefS / yardstickS());
            OpScope op(i);
            runOp(in_.ops[i], split, &r, &parts);
            r.op_ms.push_back(op.stopMs());
        }
        sumOpTimes(&r);
        r.ops = in_.ops.size();
        if (split) {
            r.layer = {
                {"serve.expand_ms_sum", parts.expand_s * 1e3, "ms"},
                {"serve.run_ms_sum", parts.run_s * 1e3, "ms"},
                {"serve.plan_hits", double(parts.hits), "count"},
                {"serve.plan_misses", double(parts.misses), "count"},
            };
        }
        return r;
    }

  private:
    struct Split
    {
        double expand_s = 0.0;
        double run_s = 0.0;
        uint64_t hits = 0;
        uint64_t misses = 0;
    };

    /** One sweep on a fresh engine (cold plan cache, one pool per call,
     *  as each CLI invocation pays). */
    void
    runOp(const SweepOp &op, bool split, Round *r, Split *parts)
    {
        serve::BatchOptions opts;
        opts.num_threads = 1;
        opts.base_seed = op.base_seed;
        opts.engine = sim::EngineMode::Analytic;
        serve::BatchEngine engine(opts);
        serve::SweepSpec spec;
        spec.scenario = op.scenario;
        spec.dataflows = {"", "ws", "cp", "wp"};
        spec.arrays = op.arrays;
        spec.engine = sim::EngineMode::Analytic;
        std::vector<std::string> skipped;
        std::string err;
        std::optional<serve::BatchReport> report;
        if (!split) {
            report = engine.sweep(spec, &skipped, &err);
        } else {
            std::optional<std::vector<serve::JobSpec>> jobs;
            {
                Span s("serve.expandSweep");
                jobs = serve::expandSweep(spec, engine.cache(), &skipped, &err);
                parts->expand_s += s.stop();
            }
            if (jobs) {
                Span s("serve.run");
                report = engine.run(*jobs);
                parts->run_s += s.stop();
            }
        }
        if (!report || report->jobs.empty() || report->failures() != 0) {
            fail(r, strCat("sweep ", op.scenario, ": ",
                           report ? strCat(report->failures(), " of ",
                                           report->jobs.size(), " jobs failed")
                                  : err));
            return;
        }
        parts->hits += report->cache.hits;
        parts->misses += report->cache.misses;
        r->sim_cycles += report->totalCycles();
        r->signature.push_back(report->totalCycles());
        r->signature.push_back(int64_t(report->jobs.size()));
        r->signature.push_back(int64_t(report->cache.misses));
    }

    SweepInputs in_;
};

// ---------------------------------------------------------------------------
// serve_mixed / serve_graph_fleet
// ---------------------------------------------------------------------------

/** Pool threads of the serving workloads; with the harness's own
 *  producer/DES thread that is 4, the core count of the reference host. */
constexpr int kPoolThreads = 3;

/** Least time between two yardstick samples inside a serving round. */
constexpr int64_t kSampleNs = 50'000'000;

class Serve : public Workload
{
  public:
    explicit Serve(bool fleet) : fleet_(fleet) {}

    bool
    generate(uint64_t seed, std::string *canonical,
             std::string *error) override
    {
        trace_ = fleet_ ? makeFleetTrace(seed) : makeMixedTrace(seed);
        *canonical = trace_.canonical;
        opts_ = daemon::DaemonOptions();
        opts_.num_threads = kPoolThreads;
        opts_.virt.max_queue = 64;
        if (fleet_) {
            opts_.clock_mhz = 10;
            if (!daemon::parseFleetSpec("feather:16x16,feather:32x32,tpu-like",
                                        &opts_.fleet, error)) {
                return false;
            }
            opts_.fleet.place = daemon::PlacementPolicy::LeastLoaded;
        } else {
            // 20 MHz keeps the two virtual servers about 70% busy: requests
            // queue, none is shed, so every seed serves the same cycles.
            opts_.clock_mhz = 20;
            opts_.virt.vworkers = 2;
        }
        return true;
    }

    void
    warmUp() override
    {
        daemon::Daemon d(opts_);
        daemon::Request req;
        std::string err;
        if (daemon::Request::parse(trace_.warmup, &req, &err)) {
            d.enqueue(std::move(req), daemon::ResponseSink());
        }
        d.closeIntake();
        d.run();
    }

    Round
    round(bool split) override
    {
        (void)split; // every serving call is already a separate span
        Round r;
        const size_t n = trace_.lines.size();
        r.ops = n;
        std::vector<std::string> responses;
        responses.reserve(n);
        std::vector<double> intake_us;
        intake_us.reserve(n);
        double parse_s = 0.0;
        double run_s = 0.0;
        daemon::DaemonReport report;
        // The run() thread mostly waits on the pool. From the response
        // sink, at most once per kSampleNs, it times the yardstick on
        // every CPU in turn: the pool's threads move between all of them,
        // and a thread left to wake where it likes lands on the one CPU
        // the pool leaves idle.
        std::vector<double> yardstick_s;
        int64_t next_sample_ns = 0;
        const int64_t t0 = nowNs();
        {
            daemon::Daemon d(opts_);
            const daemon::ResponseSink sink = [&](const std::string &line) {
                responses.push_back(line);
                if (nowNs() >= next_sample_ns) {
                    yardstickEachCpuS(&yardstick_s);
                    next_sample_ns = nowNs() + kSampleNs;
                }
            };
            for (size_t i = 0; i < n; ++i) {
                OpScope op(i);
                daemon::Request req;
                std::string err;
                bool parsed;
                {
                    Span s("daemon.parse");
                    parsed = daemon::Request::parse(trace_.lines[i], &req, &err);
                    parse_s += s.stop();
                }
                if (!parsed) {
                    fail(&r, strCat("request ", i, " does not parse: ", err));
                    continue;
                }
                Span s("daemon.enqueue");
                d.enqueue(std::move(req), sink);
                intake_us.push_back(s.stop() * 1e6);
            }
            d.closeIntake();
            Span s("daemon.run");
            report = d.run();
            run_s = s.stop();
        }
        r.wall_s = double(nowNs() - t0) * 1e-9;
        if (yardstick_s.empty()) yardstickEachCpuS(&yardstick_s);
        // The mean, not the median: a CPU runs at one of two speeds, and
        // the median of such samples jumps between them.
        const double scale =
            kYardstickRefS * double(yardstick_s.size()) /
            std::accumulate(yardstick_s.begin(), yardstick_s.end(), 0.0);
        r.ref_wall_s = r.wall_s * scale;
        const int64_t staged = checkResponses(responses, report, &r);
        r.op_scale.assign(r.op_ms.size(), scale);

        r.extra.push_back({"p99_vus", double(report.p99_vus), "vus"});
        r.extra.push_back({"rejected_frac",
                           double(report.rejected) / double(n), "fraction"});
        const double exec_ms_sum =
            std::accumulate(r.op_ms.begin(), r.op_ms.end(), 0.0);
        if (!fleet_) {
            r.layer = {
                {"daemon.parse_us_sum", parse_s * 1e6, "us"},
                {"daemon.intake_us_p50", percentile(intake_us, 50), "us"},
                {"daemon.intake_us_sum",
                 std::accumulate(intake_us.begin(), intake_us.end(), 0.0),
                 "us"},
                {"daemon.run_s", run_s, "s"},
                {"daemon.exec_ms_sum", exec_ms_sum, "ms"},
                {"daemon.exec_ms_p50", percentile(r.op_ms, 50), "ms"},
                {"daemon.pool_busy_frac",
                 exec_ms_sum * 1e-3 / (kPoolThreads * r.wall_s), "fraction"},
                {"daemon.plan_hits", double(report.cache.hits), "count"},
                {"daemon.plan_misses", double(report.cache.misses), "count"},
                {"daemon.accepted", double(report.accepted), "count"},
                {"daemon.rejected", double(report.rejected), "count"},
                {"daemon.errors", double(report.errors), "count"},
                {"daemon.p99_vus", double(report.p99_vus), "vus"},
            };
        } else {
            int64_t handoffs = 0;
            int64_t handoff_vus = 0;
            for (const daemon::DeviceRow &row : report.devices) {
                handoffs += int64_t(row.handoffs);
                handoff_vus += row.handoff_vus;
            }
            r.layer = {
                {"fleet.staged_requests", double(staged), "count"},
                {"fleet.handoffs", double(handoffs), "count"},
                {"fleet.handoff_vus", double(handoff_vus), "vus"},
            };
            for (size_t d = 0; d < report.devices.size(); ++d) {
                r.layer.push_back({strCat("fleet.busy_vus.dev", d),
                                   double(report.devices[d].busy_vus), "vus"});
            }
            r.layer.push_back(
                {"fleet.p99_vus", double(report.p99_vus), "vus"});
        }
        return r;
    }

  private:
    /** The correctness gate over one daemon run; fills the per-op times
     *  (each response's service_wall_us) and the cycle totals.
     *  @return the whole-model requests served (staged on a fleet). */
    int64_t
    checkResponses(const std::vector<std::string> &responses,
                   const daemon::DaemonReport &report, Round *r) const
    {
        const size_t n = trace_.lines.size();
        int64_t staged = 0;
        for (const std::string &line : responses) {
            feather::JsonObject obj;
            std::string err;
            if (!feather::JsonObject::parse(line, &obj, &err)) {
                fail(r, strCat("unparsable response: ", line));
                continue;
            }
            const feather::JsonScalar *status = obj.find("status");
            const std::string s = status ? status->text : "";
            if (s == "rejected") {
                r->signature.push_back(-1);
                continue;
            }
            int64_t cycles = 0, checked = 0, mismatches = 0, wall_us = 0;
            int64_t latency = 0;
            const auto get = [&obj](const char *key, int64_t *out) {
                const feather::JsonScalar *v = obj.find(key);
                return v && v->asInt(out);
            };
            if ((s != "ok" && s != "est") || !get("cycles", &cycles) ||
                !get("checked", &checked) || !get("mismatches", &mismatches) ||
                !get("service_wall_us", &wall_us) ||
                !get("latency_vus", &latency) ||
                (s == "ok" && (checked <= 0 || mismatches != 0))) {
                fail(r, strCat("bad response: ", line));
                continue;
            }
            const feather::JsonScalar *id = obj.find("id");
            if (fleet_ && id && isModel(id->text)) ++staged;
            r->op_ms.push_back(double(wall_us) * 1e-3);
            r->sim_cycles += cycles;
            r->signature.push_back(cycles);
            r->signature.push_back(latency);
        }
        if (responses.size() != n || report.requests != n ||
            report.requests !=
                report.accepted + report.rejected + report.errors ||
            report.errors != 0) {
            fail(r, strCat("daemon accounting: ", responses.size(),
                           " responses, requests ", report.requests,
                           " accepted ", report.accepted, " rejected ",
                           report.rejected, " errors ", report.errors,
                           " for ", n, " lines"));
        }
        r->signature.push_back(report.p99_vus);
        r->signature.push_back(int64_t(report.cache.hits));
        r->signature.push_back(int64_t(report.cache.misses));
        return staged;
    }

    /** Whether request id "r<i>" is a whole-model request. */
    bool
    isModel(const std::string &id) const
    {
        if (id.size() < 2) return false;
        const size_t i = size_t(std::strtoull(id.c_str() + 1, nullptr, 10));
        return i < trace_.lines.size() &&
               trace_.lines[i].find("\"model\"") != std::string::npos;
    }

    bool fleet_;
    TraceInputs trace_;
    daemon::DaemonOptions opts_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "model_search", "sweep_analytic", "serve_mixed", "serve_graph_fleet"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "model_search") return std::make_unique<ModelSearch>();
    if (name == "sweep_analytic") return std::make_unique<SweepAnalytic>();
    if (name == "serve_mixed") return std::make_unique<Serve>(false);
    if (name == "serve_graph_fleet") return std::make_unique<Serve>(true);
    return nullptr;
}

} // namespace bench
