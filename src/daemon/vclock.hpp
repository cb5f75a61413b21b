#pragma once

/**
 * @file
 * Virtual-time admission, placement and service scheduler for the serving
 * daemon.
 *
 * The daemon separates *what the serving system would do* from *how fast
 * this host computes it*. All externally-visible serving behavior —
 * admission decisions, placement, queueing, per-request latencies,
 * percentiles — is decided here, in virtual microseconds, by a
 * discrete-event simulation. Actual simulation work runs speculatively on
 * the wall-clock thread pool; the DES only consumes each request's
 * (deterministic) service duration. The result: reports are bit-identical
 * at any `--jobs N`, while execution still fans out.
 *
 * One serving model: a fleet of virtual devices, each with its servers
 * draining its own per-priority FIFOs. The FleetConfig is the one
 * description of the devices: each device of an explicit fleet is one
 * server weighted by its capability, and an empty fleet is one implicit
 * device with `vworkers` servers (the classic --vworkers N). Every
 * arrival is a list of pipeline stages. Stage 0 is either pinned to a
 * device or *placed* on one by the fleet's PlacementPolicy, using only
 * virtual state (queue depths, device capabilities, caller-supplied
 * affinity scores), so placement is deterministic at any pool size.
 * Cross-device hand-off premiums (priced by the caller via
 * model::handoffCost) are added to a stage's service time.
 *
 * Event processing is *lazy*: arrivals are fed in non-decreasing virtual
 * time order, and a completion is only materialized when a later arrival
 * (or the final drain) advances time past it. Starting a waiting request
 * on a freed server at the server's finish time f is time-correct because
 * of an invariant of this laziness: every request still waiting arrived
 * before f (had it arrived after, its own arrival processing would have
 * materialized the f-completion first).
 *
 * Stage k+1 of a request starts when stage k finishes: immediately if
 * its device has a free server at that instant (current by the heap's
 * event order), else it joins that device's FIFO at the request's
 * priority. Continuation stages bypass admission (an in-flight request
 * cannot be rejected) but occupy queue slots while they wait, so the
 * depth bounds see them; stages of independent requests interleave in
 * virtual time.
 *
 * The DurationFn may block (it waits on the speculative execution's
 * result); it is called exactly once per started stage, on the single
 * DES thread.
 */

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/fleet.hpp"

namespace feather {
namespace daemon {

/** How a fleet routes each arrival to a device. */
enum class PlacementPolicy : uint8_t {
    LeastLoaded, ///< shortest virtual queue (waiting + in service)
    Capability,  ///< queue depth weighted by device capability
    Affinity,    ///< plan-cache affinity; least-loaded among ties
};

std::optional<PlacementPolicy> parsePlacement(const std::string &name);
std::string toString(PlacementPolicy p);

/** The --fleet devices (model/fleet.hpp) plus the policy that places
 *  each arrival on one of them: the one description of the devices. An
 *  empty fleet is one implicit device with VirtualConfig::vworkers
 *  servers. */
struct FleetConfig : model::FleetSpec
{
    PlacementPolicy place = PlacementPolicy::LeastLoaded;
};

/** Admission/service knobs of the virtual serving system. */
struct VirtualConfig
{
    static constexpr int kPriorities = 3;

    /** Servers of the implicit single device used when the fleet is
     *  empty (--vworkers N; not --jobs). */
    int vworkers = 1;
    /** Max requests waiting (not in service), fleet-wide; < 0 =
     *  unbounded. */
    int max_queue = 64;
    /** Per-priority bound on waiting requests; -1 = unbounded. */
    std::array<int64_t, kPriorities> quota = {-1, -1, -1};
};

/** One pipeline stage: the device it runs on plus the hand-off premium
 *  charged when it starts (the inter-device edge feeding it, in virtual
 *  microseconds). Stage 0 may leave the device at -1 to be placed. */
struct StagePlan
{
    int device = -1;
    int64_t handoff_vus = 0;
};

/** Placement inputs of an arrival whose stage 0 is unpinned, computed by
 *  the caller on the DES thread. Vectors are indexed by device; empty
 *  means "no constraint / all zero". */
struct ArrivalHints
{
    /** Devices this request can run on (feasible mapping at the device's
     *  array shape); empty = all. */
    std::vector<uint8_t> eligible;
    /** Plan-affinity score per device (Affinity policy input). */
    std::vector<int64_t> affinity;
    /** Hand-off premium in virtual microseconds, added to stage 0's
     *  service time when placed on that device. */
    std::vector<int64_t> handoff_vus;
};

/** One request arriving at the DES. */
struct Arrival
{
    /** By default one stage, placed by @p hints. */
    Arrival(size_t index, int64_t vus, int priority,
            std::vector<StagePlan> stages = {StagePlan{}},
            ArrivalHints hints = {})
        : index(index), vus(vus), priority(priority),
          stages(std::move(stages)), hints(std::move(hints))
    {
    }

    size_t index;
    int64_t vus; ///< arrival time, >= every earlier arrival
    int priority;
    std::vector<StagePlan> stages; ///< run in order
    ArrivalHints hints;
};

/** One finished stage, reported in deterministic event order. */
struct StageEvent
{
    size_t index = 0;
    int stage = 0;
    int device = 0;
    int64_t start_vus = 0;
    int64_t finish_vus = 0; ///< includes the hand-off premium
    int64_t handoff_vus = 0;
    /** The request's last stage: it is complete, having started its
     *  first stage at first_start_vus. */
    bool last = false;
    int64_t first_start_vus = 0;
};

/** Deterministic DES over arrivals, admission, placement and service. */
class VirtualScheduler
{
  public:
    /** Virtual service duration of stage @p stage of request @p index on
     *  @p device, in microseconds; called once per started stage, may
     *  block. */
    using DurationFn =
        std::function<int64_t(size_t index, int stage, int device)>;

    /** Called once per finished stage. */
    using FinishFn = std::function<void(const StageEvent &)>;

    /** Devices and their capabilities, and the placement policy, come
     *  from @p fleet; the admission bounds from @p cfg. */
    VirtualScheduler(VirtualConfig cfg, const FleetConfig &fleet,
                     DurationFn duration, FinishFn on_finish);

    /**
     * Process arrival @p a. Materializes any completions up to its time
     * first, places an unpinned stage 0, then decides admission: true =
     * accepted (in service or waiting), false = rejected with
     * @p reject_reason set. A request is only queued — and thus only
     * subject to the depth/quota bounds — when its stage-0 device has no
     * free server. Placement happens before the bounds are checked, so a
     * rejected request never occupies its would-be device. On acceptance
     * @p placed_device receives stage 0's device.
     */
    bool arrive(Arrival a, std::string *reject_reason,
                int *placed_device = nullptr);

    /** Run every accepted request to completion. */
    void drain();

    /** Finish time of the latest completed request. */
    int64_t lastFinish() const { return last_finish_; }

  private:
    struct Running
    {
        int64_t finish = 0;
        size_t index = 0;
        int64_t start = 0;
        int device = 0;
        int stage = 0;

        /** Min-heap order: earliest finish first, ties by index (a
         *  request has at most one stage in flight, so this is total). */
        bool
        operator>(const Running &o) const
        {
            return finish != o.finish ? finish > o.finish : index > o.index;
        }
    };

    /** One FIFO entry: a request, at the stage waiting to start. */
    struct Waiter
    {
        size_t index = 0;
        int stage = 0;
    };

    /** One device's servers and FIFOs. */
    struct DeviceState
    {
        int servers = 1;
        /** Relative placement weight of the Capability policy (>= 1). */
        int64_t capability = 1;
        int busy = 0;
        std::array<std::deque<Waiter>, VirtualConfig::kPriorities> waiting;
        size_t waiting_total = 0;
    };

    /** An accepted request's pipeline, kept until its last stage ends. */
    struct Flight
    {
        std::vector<StagePlan> stages;
        int priority = 0;
        int64_t first_start = 0;
    };

    /** Materialize every completion with finish <= @p t. */
    void advanceTo(int64_t t);

    /** Pop the earliest completion; advance its pipeline, then hand its
     *  server to a waiter. */
    void completeOne();

    /** Start @p stage of @p index at @p t on a free server, or queue it
     *  on its device's FIFO. */
    void startOrQueue(size_t index, int stage, int64_t t);

    /** The placement decision: pick among eligible devices by policy. */
    int place(const ArrivalHints &hints) const;

    /** Shared admission bounds (depth + quota), fleet-wide. */
    bool admitWaiter(int priority, std::string *reject_reason);

    VirtualConfig cfg_;
    PlacementPolicy place_;
    DurationFn duration_;
    FinishFn on_finish_;
    std::priority_queue<Running, std::vector<Running>, std::greater<Running>>
        running_;
    std::unordered_map<size_t, Flight> flights_; ///< by request index
    std::vector<DeviceState> dev_;
    size_t waiting_total_ = 0;
    std::array<int64_t, VirtualConfig::kPriorities> waiting_by_prio_ = {
        0, 0, 0};
    int64_t last_arrival_ = 0;
    int64_t last_finish_ = 0;
};

} // namespace daemon
} // namespace feather
