#include "daemon/daemon.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <tuple>
#include <utility>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "dataflow/mapping.hpp"
#include "model/graph.hpp"
#include "model/scheduler.hpp"
#include "serve/engine.hpp"

namespace feather {
namespace daemon {

namespace {

std::string
reasonLine(const Request &req, const char *status, const std::string &reason)
{
    return jsonObject({textField("id", req.id),
                       textField("client", req.client),
                       textField("status", status),
                       textField("reason", reason)});
}

} // namespace

Daemon::Daemon(DaemonOptions opts) : opts_(opts)
{
    if (opts_.num_threads < 1) opts_.num_threads = 1;
    if (opts_.clock_mhz < 1) opts_.clock_mhz = 1;
    // No fleet: one implicit device whose virt.vworkers servers run every
    // request at its own shape.
    devices_ = opts_.fleet.enabled()
                   ? opts_.fleet.devices
                   : std::vector<model::FleetDevice>{{"", 0, 0, 1}};
    dev_stats_.resize(devices_.size());
    pool_ = std::make_unique<serve::ThreadPool>(opts_.num_threads);
    start_ = std::chrono::steady_clock::now();
}

Daemon::~Daemon()
{
    // Speculative executions hold raw pointers into intake_/processed_;
    // let them land before the members go away.
    if (pool_) pool_->wait();
}

int64_t
Daemon::wallSinceStartUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

int64_t
Daemon::toVus(int64_t cycles) const
{
    const int64_t mhz = int64_t(opts_.clock_mhz);
    return std::max<int64_t>(1, (cycles + mhz - 1) / mhz);
}

std::string
Daemon::preplanLocked(Pending *p, ClientStats *stats)
{
    const Request &req = p->req;
    const sim::EngineMode mode = req.engine ? *req.engine : opts_.engine;
    // Shape-independent validation first.
    p->graph = req.isModel() ? model::findModel(req.model)
                             : sim::findScenario(req.scenario);
    if (!p->graph) {
        return req.isModel()
                   ? strCat("unknown model \"", req.model, "\"")
                   : strCat("unknown scenario \"", req.scenario, "\"");
    }
    const sim::ModelGraph &graph = *p->graph;
    std::optional<sim::DataflowKind> forced;
    if (!req.dataflow.empty()) {
        forced = sim::parseDataflow(req.dataflow);
        if (!forced) return strCat("unknown dataflow \"", req.dataflow, "\"");
    }
    std::string bad_schedule;
    if (req.isModel() && !model::parseSchedule(req.schedule, &bad_schedule)) {
        return bad_schedule;
    }

    const auto add_variant = [&](int aw, int ah) {
        auto v = std::make_unique<ExecVariant>();
        v->aw = aw;
        v->ah = ah;
        v->done_future = v->done.get_future();
        p->variants.push_back(std::move(v));
        return int(p->variants.size()) - 1;
    };
    // One device loop; request kinds differ in four inputs. A split graph
    // (a model on a fleet, whose scheduler places each layer itself) plans
    // each usable device at its own shape in its own cache scope (request
    // shape pins are ignored, as the README says), every family, and past
    // an unfit layer (so every scope warms alike, rejected or not); it
    // shares one staged variant. A whole request plans at its pinned
    // shape, else the device's, in the shared scope; a model layer plans
    // every family, a scenario layer its one (forced, else its pin); it
    // stops at its first unfit layer, and runs once per distinct (scope,
    // shape), shared by the devices that resolve to it.
    const bool fleet = opts_.fleet.enabled();
    const bool split = req.isModel() && fleet;
    const size_t nlayers = graph.layers.size();
    std::vector<sim::DataflowKind> pins;
    for (const sim::ModelLayer &ml : graph.layers) {
        if (req.isModel()) break;
        FEATHER_CHECK(forced || ml.dataflow, "unpinned scenario");
        pins.push_back(forced ? *forced : *ml.dataflow);
    }
    // Per layer: whether any device fits it, and its error (a split graph
    // reports the first failure on any device, a whole request the last
    // family's failure on the device it stops).
    std::vector<char> layer_fits(nlayers, 0);
    std::vector<std::string> layer_err(nlayers);
    std::map<std::tuple<std::string, int, int>, size_t> seen; // -> device
    std::string first_error;
    p->dev_plan.resize(devices_.size());
    for (size_t d = 0; d < devices_.size(); ++d) {
        const model::FleetDevice &dev = devices_[d];
        const int aw = !split && req.aw > 0 ? req.aw : dev.aw;
        const int ah = !split && req.ah > 0 ? req.ah : dev.ah;
        const std::string scope = split ? dev.name : "";
        const auto [it, fresh] = seen.emplace(std::tie(scope, aw, ah), d);
        DevicePlan &dp = p->dev_plan[d];
        if (!fresh) {
            dp = p->dev_plan[it->second];
            continue;
        }
        const int plan_aw = aw > 0 ? aw : graph.default_aw;
        const int plan_ah = ah > 0 ? ah : graph.default_ah;
        // Execution refuses an unusable shape: a pinned width on every
        // device, so the request is refused outright; else just this
        // device, which plans nothing, stays infeasible and is never
        // placed.
        if (std::string bad = sim::arrayShapeError(plan_aw, plan_ah);
            !bad.empty()) {
            if (!split && req.aw > 0) return bad;
            if (first_error.empty()) first_error = std::move(bad);
            continue;
        }
        std::string err;
        for (size_t l = 0; l < nlayers && err.empty(); ++l) {
            const sim::ModelLayer &ml = graph.layers[l];
            const sim::DataflowKind *kinds =
                req.isModel() ? std::begin(model::kFamilies) : &pins[l];
            const size_t nkinds =
                req.isModel() ? std::size(model::kFamilies) : 1;
            bool fits = false;
            for (size_t k = 0; k < nkinds; ++k) {
                // Count hit/miss against the admission-time planning
                // history (racing the pool's runtime lookups would make
                // per-client counters timing-dependent), then plan.
                const std::string key = serve::PlanCache::key(
                    mode, kinds[k], ml.spec, plan_aw, plan_ah);
                dp.keys.push_back(key);
                if (planned_keys_
                        .insert(serve::PlanCache::scopedKey(key, scope))
                        .second) {
                    ++stats->cache_misses;
                } else {
                    ++stats->cache_hits;
                }
                std::string why;
                const std::optional<sim::LayerPlan> plan = cache_.getOrPlan(
                    mode, kinds[k], ml.spec, plan_aw, plan_ah, &why, scope);
                if (!plan) {
                    if (!split || layer_err[l].empty()) layer_err[l] = why;
                    continue;
                }
                fits = true;
                if (dp.feasible) continue;
                dp.feasible = true; // first fitting layer: hand-off input
                dp.in_layout = plan->in_layout;
                dp.in_extents = iactExtents(ml.spec);
            }
            layer_fits[l] |= fits;
            if (fits || split) continue;
            err = req.isModel()
                      ? strCat("no dataflow family fits ", ml.spec.name,
                               " on a ", plan_aw, "x", plan_ah,
                               " array: ", layer_err[l])
                      : strCat("layer ", ml.spec.name, ": ", layer_err[l]);
        }
        if (split) continue;
        dp.feasible = err.empty();
        if (dp.feasible) {
            dp.variant = add_variant(aw, ah);
        } else if (first_error.empty()) {
            first_error = err;
        }
    }
    if (split) {
        for (size_t l = 0; l < nlayers; ++l) {
            if (layer_fits[l]) continue;
            return strCat("no fleet device fits ", graph.layers[l].spec.name,
                          ": ",
                          layer_err[l].empty() ? "no usable device shape"
                                               : layer_err[l]);
        }
        add_variant(0, 0);
        for (DevicePlan &dp : p->dev_plan) dp.feasible = true;
        return "";
    }
    if (!p->variants.empty()) return "";
    return fleet ? strCat("no fleet device can run this request: ",
                          first_error)
                 : first_error;
}

void
Daemon::enqueue(Request req, ResponseSink sink)
{
    auto p = std::make_unique<Pending>();
    p->req = std::move(req);
    p->sink = std::move(sink);

    bool runnable = false;
    Pending *raw = p.get();
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (closed_) {
            // Late arrival racing shutdown (TCP). Answer directly — the
            // event loop may already be unreachable.
            if (p->sink) {
                p->sink(reasonLine(p->req, "rejected", "intake closed"));
            }
            return;
        }
        p->index = next_index_++;
        ++total_requests_;
        if (p->req.id.empty()) p->req.id = strCat("r", p->index);
        p->enqueue_wall_us = wallSinceStartUs();
        p->arrival_vus = p->req.arrival_us >= 0 ? p->req.arrival_us
                                                : p->enqueue_wall_us;
        ClientStats &cs = clients_[p->req.client];
        ++cs.requests;
        if (p->early_error.empty()) {
            p->early_error = preplanLocked(p.get(), &cs);
        }
        runnable = p->early_error.empty();
        intake_.push_back(std::move(p));
    }
    // Continuous batching: the simulation starts the moment the request
    // is planned, regardless of admission (decided later, in virtual
    // time). A rejected request's result is simply discarded. A request
    // runs one speculative execution per distinct device shape; the DES
    // charges the placed device's variant.
    if (runnable) {
        for (const std::unique_ptr<ExecVariant> &v : raw->variants) {
            ExecVariant *var = v.get();
            pool_->submit([this, raw, var] { execute(raw, var); });
        }
    }
    intake_cv_.notify_one();
}

void
Daemon::enqueueLine(const std::string &line, ResponseSink sink)
{
    auto p = std::make_unique<Pending>();
    std::string error;
    if (!Request::parse(line, &p->req, &error)) {
        // Attribute the failure to the line's client when that field
        // parsed before the error; "anon" otherwise.
        Request bad = p->req;
        bad.scenario.clear();
        bad.model.clear();
        Pending *raw = p.get();
        raw->early_error = strCat("bad request line: ", error);
        raw->req = std::move(bad);
        raw->sink = std::move(sink);
        std::lock_guard<std::mutex> lk(mu_);
        if (closed_) return;
        raw->index = next_index_++;
        ++total_requests_;
        if (raw->req.id.empty()) raw->req.id = strCat("r", raw->index);
        raw->enqueue_wall_us = wallSinceStartUs();
        raw->arrival_vus = raw->enqueue_wall_us;
        ++clients_[raw->req.client].requests;
        intake_.push_back(std::move(p));
        intake_cv_.notify_one();
        return;
    }
    enqueue(std::move(p->req), std::move(sink));
}

void
Daemon::closeIntake()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        closed_ = true;
    }
    intake_cv_.notify_all();
}

void
Daemon::execute(Pending *p, ExecVariant *v)
{
    const auto exec_start = std::chrono::steady_clock::now();
    ExecResult &r = v->exec;
    r.queue_wall_us = wallSinceStartUs() - p->enqueue_wall_us;
    try {
        if (!p->req.isModel()) {
            serve::JobSpec spec;
            spec.inline_scenario = *p->graph; // resolved at pre-plan
            spec.opts.aw = v->aw;
            spec.opts.ah = v->ah;
            spec.opts.dataflow = p->req.dataflow;
            spec.opts.layout = p->req.layout;
            spec.opts.out_layout = p->req.out_layout;
            spec.explicit_seed = p->req.seed;
            spec.engine = p->req.engine;
            const serve::JobResult job = serve::runJob(
                spec, p->index, opts_.base_seed, opts_.engine, cache_);
            r.ok = job.ok;
            r.error = job.error;
            if (job.ok) {
                r.est = job.engine == sim::EngineMode::Analytic;
                r.cycles = job.cycles;
                r.macs = job.macs;
                r.checked = job.checked;
                r.mismatches = job.mismatches;
                r.segments.push_back({0, r.cycles, 0});
            }
        } else {
            const sim::ModelGraph &graph = *p->graph;
            const std::optional<model::SchedulePolicy> policy =
                model::parseSchedule(p->req.schedule);
            FEATHER_CHECK(policy.has_value(),
                          "pre-validated schedule vanished");
            model::SchedulerOptions mopts;
            mopts.aw = v->aw;
            mopts.ah = v->ah;
            // One request = one pool slot; parallelism comes from serving
            // many requests, not from fanning out inside one.
            mopts.num_threads = 1;
            mopts.seed = p->req.seed
                             ? *p->req.seed
                             : Rng::deriveStream(opts_.base_seed, p->index);
            mopts.engine = p->req.engine ? *p->req.engine : opts_.engine;
            mopts.shared_cache = &cache_;
            // A fleet scheduler splits the graph across the fleet's
            // devices itself (whole-graph pipeline scheduling).
            mopts.fleet = opts_.fleet;
            model::Scheduler sched(mopts);
            std::string err;
            const std::optional<model::Evaluation> eval =
                sched.evaluate(graph, &err);
            std::optional<model::ScheduleResult> result;
            if (eval) result = sched.schedule(graph, *eval, *policy, &err);
            if (!result) {
                r.error = err;
            } else {
                // The measured chain is always cycle-accurate, whatever
                // tier evaluated the candidates — so model results are
                // verified ("ok"), never estimates.
                r.ok = true;
                r.cycles = result->cycles;
                r.macs = result->macs;
                r.checked = result->checked;
                r.mismatches = result->mismatches;
                // The DES pipeline: one stage per contiguous same-device
                // segment, the cross-device edge priced on the segment it
                // feeds.
                for (size_t i = 0; i < result->layers.size(); ++i) {
                    const model::LayerChoice &lc = result->layers[i];
                    if (r.segments.empty() ||
                        r.segments.back().device != lc.device) {
                        if (!r.path.empty()) r.path += ">";
                        r.path += lc.device_name;
                        r.segments.push_back(
                            {lc.device, 0, i > 0 ? lc.reorder_cycles : 0});
                    }
                    r.segments.back().cycles += lc.cycles;
                }
            }
        }
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    r.service_wall_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - exec_start)
            .count();
    v->done.set_value();
}

Daemon::ExecVariant *
Daemon::variantFor(Pending *p, int device) const
{
    FEATHER_CHECK(size_t(device) < p->dev_plan.size(),
                  "placed device out of range");
    const DevicePlan &dp = p->dev_plan[size_t(device)];
    FEATHER_CHECK(dp.feasible, "placed on an infeasible device");
    return p->variants[size_t(dp.variant)].get();
}

void
Daemon::respond(Pending *p, const std::string &line)
{
    if (p->sink) p->sink(line);
}

void
Daemon::finishOne(Pending *p, int device, int64_t start_vus,
                  int64_t finish_vus)
{
    const ExecResult &r = variantFor(p, device)->exec;
    if (!r.ok) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++clients_[p->req.client].errors;
            ++failures_;
        }
        respond(p, reasonLine(p->req, "ERROR", r.error));
        return;
    }
    const int64_t queue_vus = start_vus - p->arrival_vus;
    const int64_t latency_vus = finish_vus - p->arrival_vus;
    const char *status =
        r.est ? "est" : (r.mismatches == 0 ? "ok" : "MISMATCH");
    {
        std::lock_guard<std::mutex> lk(mu_);
        ClientStats &cs = clients_[p->req.client];
        ++cs.accepted;
        cs.cycles += r.cycles;
        cs.macs += r.macs;
        cs.latency.record(latency_vus);
        cs.queue_vus += queue_vus;
        cs.service_vus += p->service_vus;
        cs.queue_wall_us += r.queue_wall_us;
        cs.service_wall_us += r.service_wall_us;
        if (r.mismatches != 0) ++failures_;
    }
    std::vector<FieldValue> line = {
        textField("id", p->req.id), textField("client", p->req.client),
        textField("status", status), numberField("cycles", r.cycles),
        numberField("macs", r.macs), numberField("checked", r.checked),
        numberField("mismatches", r.mismatches),
        numberField("queue_vus", queue_vus),
        numberField("service_vus", p->service_vus)};
    if (opts_.fleet.enabled()) {
        // A split graph reports its whole device path ("devA>devB").
        line.push_back(textField("device", r.path.empty()
                                               ? devices_[size_t(device)].name
                                               : r.path));
        line.push_back(numberField("handoff_vus", p->handoff_vus));
    }
    line.push_back(numberField("latency_vus", latency_vus));
    line.push_back(numberField("finish_vus", finish_vus));
    line.push_back(numberField("service_wall_us", r.service_wall_us));
    respond(p, jsonObject(line));
}

DaemonReport
Daemon::run()
{
    // Requests the DES admitted, indexed by DES position.
    std::vector<Pending *> des;
    VirtualScheduler vs(
        opts_.virt, opts_.fleet,
        [this, &des](size_t pos, int stage, int device) {
            Pending *p = des[pos];
            // The one synchronization point between virtual time and the
            // wall-clock pool: a stage's service duration is known once
            // its speculative execution lands. A failed run serves 1 vus.
            ExecVariant *v = variantFor(p, device);
            v->done_future.wait();
            const int64_t dur = toVus(
                v->exec.ok ? v->exec.segments[size_t(stage)].cycles : 0);
            p->service_vus += dur;
            return dur;
        },
        [this, &des](const StageEvent &e) {
            // Per-device virtual accounting, one entry per stage; the
            // whole-request view is finishOne's.
            Pending *p = des[e.index];
            DeviceStats &ds = dev_stats_[size_t(e.device)];
            ++ds.requests;
            ds.busy_vus += e.finish_vus - e.start_vus;
            if (e.stage == 0) ds.queue.record(e.start_vus - p->arrival_vus);
            if (e.handoff_vus > 0) {
                ++ds.handoffs;
                ds.handoff_vus += e.handoff_vus;
                p->handoff_vus += e.handoff_vus;
            }
            if (e.last) {
                finishOne(p, e.device, e.first_start_vus, e.finish_vus);
            }
        });

    int64_t last_arrival = 0;
    for (;;) {
        std::unique_ptr<Pending> item;
        {
            std::unique_lock<std::mutex> lk(mu_);
            intake_cv_.wait(lk,
                            [this] { return !intake_.empty() || closed_; });
            if (intake_.empty()) break;
            item = std::move(intake_.front());
            intake_.pop_front();
        }
        Pending *p = item.get();
        processed_.push_back(std::move(item));

        if (!p->early_error.empty()) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++clients_[p->req.client].errors;
                ++failures_;
            }
            respond(p, reasonLine(p->req, "ERROR", p->early_error));
            continue;
        }
        if (p->arrival_vus < last_arrival) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++clients_[p->req.client].errors;
                ++failures_;
            }
            respond(p, reasonLine(
                           p->req, "ERROR",
                           strCat("arrival_us ", p->arrival_vus,
                                  " is earlier than a previous request's ",
                                  last_arrival, " (pinned arrivals must be"
                                  " non-decreasing)")));
            continue;
        }
        last_arrival = p->arrival_vus;

        const size_t pos = des.size();
        des.push_back(p);
        Arrival a(pos, p->arrival_vus, p->req.priority);
        const auto prev_it = client_device_.find(p->req.client);
        const int prev =
            prev_it == client_device_.end() ? -1 : prev_it->second;
        const size_t ndev = devices_.size();
        if (p->req.isModel() && ndev > 1) {
            // A whole graph split across the fleet: the fleet scheduler
            // pins its stages, so the speculative execution must land
            // before admission (graph requests serialize on the DES
            // thread; everything else keeps its full overlap).
            ExecVariant *v = p->variants.front().get();
            v->done_future.wait();
            const ExecResult &r = v->exec;
            if (r.ok) {
                a.stages.clear();
                for (const ExecSegment &seg : r.segments) {
                    int64_t cycles = seg.handoff_cycles;
                    if (a.stages.empty() && prev >= 0 && prev != seg.device) {
                        // The client's stream moving off its previous
                        // device: concordant layouts, so handoffCost
                        // charges only the inter-chip link term on the
                        // first layer's input. The device's plan holds its
                        // extents: the scheduler put that layer there, so
                        // it is the first layer planned there.
                        const DevicePlan &dp =
                            p->dev_plan[size_t(seg.device)];
                        cycles = model::handoffCost(
                            false, dp.in_layout, dp.in_layout, dp.in_extents,
                            model::kHandoffElemBytes, opts_.fleet.link);
                    }
                    a.stages.push_back(
                        {seg.device, cycles > 0 ? toVus(cycles) : 0});
                }
            } else {
                // Failed schedules still flow through the DES so their
                // rejection/error accounting stays deterministic: one
                // unit stage on the first device.
                a.stages = {StagePlan{0, 0}};
            }
        } else {
            const bool affinity =
                opts_.fleet.place == PlacementPolicy::Affinity;
            a.hints.eligible.resize(ndev);
            a.hints.affinity.assign(affinity ? ndev : 0, 0);
            a.hints.handoff_vus.assign(ndev, 0);
            for (size_t d = 0; d < ndev; ++d) {
                const DevicePlan &dst = p->dev_plan[d];
                a.hints.eligible[d] = dst.feasible ? 1 : 0;
                if (!dst.feasible) continue;
                if (affinity) {
                    // Affinity score: how many of this request's planning
                    // points the device has already served.
                    for (const std::string &k : dst.keys) {
                        a.hints.affinity[d] += int64_t(device_keys_.count(
                            serve::PlanCache::scopedKey(
                                k, devices_[d].name)));
                    }
                }
                if (prev < 0 || int(d) == prev) continue;
                // Cross-device hand-off premium: moving this client's
                // stream off its previous device pays reorder +
                // inter-chip transfer (model::handoffCost).
                const DevicePlan &src = p->dev_plan[size_t(prev)];
                a.hints.handoff_vus[d] = toVus(model::handoffCost(
                    false, src.feasible ? src.in_layout : dst.in_layout,
                    dst.in_layout, dst.in_extents, model::kHandoffElemBytes,
                    opts_.fleet.link));
            }
        }
        std::string reason;
        int placed = -1;
        if (!vs.arrive(a, &reason, &placed)) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++clients_[p->req.client].rejected;
            }
            respond(p, reasonLine(p->req, "rejected", reason));
            continue;
        }
        a.stages.front().device = placed;
        client_device_[p->req.client] = a.stages.back().device;
        // Virtual per-device cache warmth: a planning point is warm only
        // on devices that ran it before (every device the request's
        // stages touch, in stage order).
        std::vector<char> seen(ndev, 0);
        for (const StagePlan &sp : a.stages) {
            const size_t d = size_t(sp.device);
            if (seen[d]) continue;
            seen[d] = 1;
            DeviceStats &ds = dev_stats_[d];
            for (const std::string &k : p->dev_plan[d].keys) {
                if (device_keys_
                        .insert(serve::PlanCache::scopedKey(
                            k, devices_[d].name))
                        .second) {
                    ++ds.cache_misses;
                } else {
                    ++ds.cache_hits;
                }
            }
        }
    }
    vs.drain();
    // Discarded speculative executions (rejected requests) may still be
    // in flight; land them before reading the cache counters.
    pool_->wait();
    return buildReport(vs);
}

uint64_t
Daemon::failures() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return failures_;
}

DaemonReport
Daemon::buildReport(const VirtualScheduler &vs) const
{
    std::lock_guard<std::mutex> lk(mu_);
    DaemonReport rep;
    rep.base_seed = opts_.base_seed;
    rep.vworkers = opts_.fleet.enabled() ? int(devices_.size())
                                         : opts_.virt.vworkers;
    rep.clock_mhz = opts_.clock_mhz;
    rep.engine = sim::toString(opts_.engine);

    LatencyHistogram all;
    for (const auto &[name, cs] : clients_) {
        ClientRow row;
        row.client = name;
        row.requests = cs.requests;
        row.accepted = cs.accepted;
        row.rejected = cs.rejected;
        row.errors = cs.errors;
        row.cache_hits = cs.cache_hits;
        row.cache_misses = cs.cache_misses;
        row.total_cycles = cs.cycles;
        row.p50_vus = cs.latency.percentile(50);
        row.p95_vus = cs.latency.percentile(95);
        row.p99_vus = cs.latency.percentile(99);
        const uint64_t n = cs.latency.count();
        row.mean_queue_vus = n ? double(cs.queue_vus) / double(n) : 0.0;
        row.mean_service_vus = n ? double(cs.service_vus) / double(n) : 0.0;
        row.queue_wall_us = cs.queue_wall_us;
        row.service_wall_us = cs.service_wall_us;
        rep.clients.push_back(std::move(row));

        rep.requests += cs.requests;
        rep.accepted += cs.accepted;
        rep.rejected += cs.rejected;
        rep.errors += cs.errors;
        rep.total_cycles += cs.cycles;
        rep.total_macs += cs.macs;
        all.merge(cs.latency);
    }
    rep.p50_vus = all.percentile(50);
    rep.p95_vus = all.percentile(95);
    rep.p99_vus = all.percentile(99);
    rep.max_vus = all.max();
    rep.makespan_vus = vs.lastFinish();
    rep.virtual_rps = rep.makespan_vus > 0
                          ? double(rep.accepted) * 1e6 /
                                double(rep.makespan_vus)
                          : 0.0;
    rep.cache = cache_.stats();
    if (opts_.fleet.enabled()) {
        rep.fleet = opts_.fleet.spec;
        rep.place = toString(opts_.fleet.place);
        for (size_t i = 0; i < dev_stats_.size(); ++i) {
            const DeviceStats &ds = dev_stats_[i];
            DeviceRow row;
            row.device = devices_[i].name;
            row.capability = devices_[i].capability;
            row.requests = ds.requests;
            row.busy_vus = ds.busy_vus;
            row.queue_p95_vus = ds.queue.percentile(95);
            row.cache_hits = ds.cache_hits;
            row.cache_misses = ds.cache_misses;
            row.handoffs = ds.handoffs;
            row.handoff_vus = ds.handoff_vus;
            rep.devices.push_back(std::move(row));
        }
    }
    rep.run_wall_us = wallSinceStartUs();
    return rep;
}

} // namespace daemon
} // namespace feather
