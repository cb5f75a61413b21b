#pragma once

/**
 * @file
 * The long-running serving daemon: a persistent event loop with
 * continuous batching, admission control and a warm shared plan cache.
 *
 * Lifecycle:
 *   - Frontend threads (stdin reader, TCP connections, the load
 *     generator, a trace replayer) call enqueue()/enqueueLine() as
 *     requests arrive. Enqueue validates the request, *pre-plans* it
 *     through the shared PlanCache in one loop over the devices
 *     (attributing per-client hits/misses under the intake lock, so
 *     attribution is deterministic), and immediately submits its
 *     simulation to the wall-clock thread pool — speculative, continuous
 *     execution with no wave barrier.
 *   - run() — the event loop, on the caller's thread — consumes requests
 *     in intake order and feeds their arrivals to the VirtualScheduler,
 *     which decides admission and virtual timing. Responses (one JSON
 *     line each) are emitted from this single thread, in deterministic
 *     order for pinned-arrival request streams.
 *   - closeIntake() (EOF / shutdown control line) lets run() drain and
 *     return the final DaemonReport.
 *
 * Devices: DaemonOptions::fleet (a FleetConfig) is the one description
 * of the devices and their placement policy, read by both the pre-plan
 * loop and the VirtualScheduler; an empty fleet is one implicit device
 * with virt.vworkers servers.
 *
 * Determinism: for a request stream with pinned arrival_us values, every
 * response and every report field other than `*_wall_us` is bit-identical
 * at any pool size, because all serving decisions happen in virtual time
 * on the DES thread and each request's simulation draws from its own
 * derived RNG stream (Rng::deriveStream(base_seed, intake_index)).
 */

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/histogram.hpp"
#include "daemon/report.hpp"
#include "daemon/request.hpp"
#include "daemon/vclock.hpp"
#include "model/fleet.hpp"
#include "serve/plan_cache.hpp"
#include "serve/thread_pool.hpp"

namespace feather {
namespace daemon {

using model::parseFleetSpec;

/** Daemon-wide knobs. */
struct DaemonOptions
{
    /** Wall-clock worker pool size (`--jobs N`); affects throughput and
     *  `*_wall_us` fields only, never results. */
    int num_threads = 1;
    uint64_t base_seed = 2024; ///< stream base for per-request seeds
    /** Default engine tier for requests that do not pin one. */
    sim::EngineMode engine = sim::EngineMode::Cycle;
    /** Admission bounds of the virtual serving system (queue depth,
     *  quotas), plus the servers of the implicit device (vworkers). */
    VirtualConfig virt;
    /** Virtual clock: service_vus = ceil(cycles / clock_mhz). */
    uint64_t clock_mhz = 1000;
    /** The devices (--fleet) and their placement policy: each device is
     *  one virtual server at its own array shape, requests are placed by
     *  fleet.place, and cross-device hand-offs are priced into service
     *  time; virt.vworkers is then unused. Empty = one implicit device
     *  with virt.vworkers servers, running every request at its own
     *  shape. */
    FleetConfig fleet;
};

/** Where a request's response line goes (per-request: TCP connections
 *  each bring their own sink). Called only from the run() thread. */
using ResponseSink = std::function<void(const std::string &line)>;

/** Persistent serving daemon over the batch simulation engine. */
class Daemon
{
  public:
    explicit Daemon(DaemonOptions opts = {});
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Parse @p line and enqueue it; unparsable lines become error
     *  responses attributed to client "anon" (or the line's client
     *  when that field parsed before the failure). */
    void enqueueLine(const std::string &line, ResponseSink sink);

    /** Answer a request line that could not be read whole (@p reason)
     *  the way enqueueLine answers an unparsable one: one ERROR line
     *  "bad request line: <reason>", attributed to client "anon". */
    void refuseLine(const std::string &reason, ResponseSink sink);

    /** Enqueue an already-parsed request. */
    void enqueue(Request req, ResponseSink sink);

    /** No further requests; run() returns once the queue drains. */
    void closeIntake();

    /**
     * The event loop: processes intake until closeIntake() and every
     * request has been answered, then returns the final report. Call
     * exactly once, from one thread (enqueue is safe concurrently).
     */
    DaemonReport run();

    /** Requests that failed (parse, validation, execution, mismatch) —
     *  admission rejections are serving behavior, not failures. */
    uint64_t failures() const;

    serve::PlanCache &cache() { return cache_; }
    const DaemonOptions &options() const { return opts_; }

  private:
    /** One contiguous same-device segment of a request's schedule: one
     *  DES stage. Only a whole graph split across a fleet has several. */
    struct ExecSegment
    {
        int device = 0;
        int64_t cycles = 0; ///< measured cycles of the segment's layers
        /** Price of the cross-device edge feeding this segment (0 for
         *  the first segment). */
        int64_t handoff_cycles = 0;
    };

    /** Outcome of one speculative execution (filled on a pool thread). */
    struct ExecResult
    {
        bool ok = false;
        std::string error;
        bool est = false; ///< analytic scenario run: nothing to verify
        int64_t cycles = 0;
        int64_t macs = 0;
        int64_t checked = 0;
        int64_t mismatches = 0;
        int64_t queue_wall_us = 0;   ///< enqueue -> execution start
        int64_t service_wall_us = 0; ///< execution duration
        std::vector<ExecSegment> segments; ///< >= 1 when ok
        std::string path; ///< model requests: device chain "devA>devB"
    };

    /** One speculative execution at one resolved array shape. A request
     *  runs once per *distinct* device shape; the DES then charges the
     *  placed device's variant. */
    struct ExecVariant
    {
        int aw = 0; ///< shape override passed to execution (0 = default)
        int ah = 0;
        std::promise<void> done;
        std::future<void> done_future;
        ExecResult exec; ///< written by the pool task before done
    };

    /** What one device would do with one request (filled at admission
     *  time, on the intake path, under mu_). */
    struct DevicePlan
    {
        bool feasible = false;
        int variant = 0;    ///< index into Pending::variants
        Layout in_layout;   ///< first layer's planned input layout
        Extents in_extents; ///< first layer's input tensor extents
        std::vector<std::string> keys; ///< base plan keys at this shape
    };

    /** One request in flight, owned by the daemon until run() returns. */
    struct Pending
    {
        Request req;
        ResponseSink sink;
        size_t index = 0;       ///< intake order (seed stream index)
        int64_t arrival_vus = 0;
        int64_t enqueue_wall_us = 0;
        std::string early_error; ///< parse/validation error; skips the DES
        const sim::ModelGraph *graph = nullptr; ///< resolved at pre-plan
        std::vector<std::unique_ptr<ExecVariant>> variants;
        std::vector<DevicePlan> dev_plan; ///< one per device
        int64_t service_vus = 0;
        int64_t handoff_vus = 0; ///< cross-device hand-off premiums paid
    };

    /** Per-client accounting, folded into ClientRows at report time. */
    struct ClientStats
    {
        uint64_t requests = 0;
        uint64_t accepted = 0;
        uint64_t rejected = 0;
        uint64_t errors = 0;
        uint64_t cache_hits = 0;
        uint64_t cache_misses = 0;
        int64_t cycles = 0;
        int64_t macs = 0;
        LatencyHistogram latency;
        int64_t queue_vus = 0;
        int64_t service_vus = 0;
        int64_t queue_wall_us = 0;
        int64_t service_wall_us = 0;
    };

    /** Per-device virtual bookkeeping (run() thread). */
    struct DeviceStats
    {
        uint64_t requests = 0;
        int64_t busy_vus = 0;
        LatencyHistogram queue;
        uint64_t cache_hits = 0;
        uint64_t cache_misses = 0;
        uint64_t handoffs = 0;
        int64_t handoff_vus = 0;
    };

    int64_t wallSinceStartUs() const;

    /**
     * Validate @p p->req and warm the plan cache with every planning
     * point its execution will look up on every device, attributing
     * hits/misses to @p stats. Runs under mu_ (sequential in intake
     * order => deterministic attribution). Resolves p->graph, fills
     * p->dev_plan and creates one ExecVariant per distinct feasible
     * (scope, shape) (one staged variant for a graph split over a
     * fleet). Returns a non-empty reason when the request can never run
     * (unknown workload, bad override, infeasible mapping on every
     * device).
     */
    std::string preplanLocked(Pending *p, ClientStats *stats);

    /** The speculative execution body (pool thread). */
    void execute(Pending *p, ExecVariant *v);

    /** The variant the DES charges when @p p runs on @p device. */
    ExecVariant *variantFor(Pending *p, int device) const;

    void respond(Pending *p, const std::string &line);

    /** Count an error against @p p's client and answer @p p with an
     *  ERROR line carrying @p reason. */
    void respondError(Pending *p, const std::string &reason);

    /**
     * The one intake path of enqueue(), enqueueLine() and refuseLine():
     * number @p p, count it against its client, pre-plan it unless it
     * carries a parse error, queue it for run() and start its speculative
     * executions.
     * After closeIntake() a parsed request is answered "rejected: intake
     * closed" and an unparsable line is dropped.
     */
    void enqueuePending(std::unique_ptr<Pending> p);

    /** Virtual microseconds of @p cycles: ceil(cycles / clock_mhz), at
     *  least 1. */
    int64_t toVus(int64_t cycles) const;

    /** Event-loop helpers (run() thread). */
    void finishOne(Pending *p, int device, int64_t start_vus,
                   int64_t finish_vus);
    DaemonReport buildReport(const VirtualScheduler &vs) const;

    DaemonOptions opts_;
    serve::PlanCache cache_;
    std::unique_ptr<serve::ThreadPool> pool_;
    std::chrono::steady_clock::time_point start_;

    mutable std::mutex mu_;
    std::condition_variable intake_cv_;
    std::deque<std::unique_ptr<Pending>> intake_;
    std::vector<std::unique_ptr<Pending>> processed_; ///< run()-owned
    bool closed_ = false;
    size_t next_index_ = 0;
    /** Keys already planned at admission time: replicates the cache's
     *  own hit/miss behavior without racing the pool's runtime lookups,
     *  keeping per-client counters deterministic. */
    std::unordered_set<std::string> planned_keys_;
    std::map<std::string, ClientStats> clients_;
    uint64_t failures_ = 0;
    uint64_t total_requests_ = 0;

    /** The fleet's devices, or one implicit device (empty name, shape
     *  0x0 = each request's own) when no fleet is configured. */
    std::vector<model::FleetDevice> devices_;

    // Placement state, touched only by the run() thread.
    std::vector<DeviceStats> dev_stats_;          ///< devices_ order
    std::unordered_set<std::string> device_keys_; ///< device-scoped keys
    std::map<std::string, int> client_device_;    ///< last placed device
};

} // namespace daemon
} // namespace feather
