#include "daemon/vclock.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace feather {
namespace daemon {

std::optional<PlacementPolicy>
parsePlacement(const std::string &name)
{
    if (name == "least-loaded") return PlacementPolicy::LeastLoaded;
    if (name == "capability") return PlacementPolicy::Capability;
    if (name == "affinity") return PlacementPolicy::Affinity;
    return std::nullopt;
}

std::string
toString(PlacementPolicy p)
{
    switch (p) {
    case PlacementPolicy::LeastLoaded: return "least-loaded";
    case PlacementPolicy::Capability: return "capability";
    case PlacementPolicy::Affinity: return "affinity";
    }
    return "?";
}

VirtualScheduler::VirtualScheduler(VirtualConfig cfg,
                                   const FleetConfig &fleet,
                                   DurationFn duration, FinishFn on_finish)
    : cfg_(std::move(cfg)), place_(fleet.place),
      duration_(std::move(duration)), on_finish_(std::move(on_finish))
{
    // A fleet device is one server; the implicit device has vworkers.
    dev_.resize(std::max<size_t>(1, fleet.devices.size()));
    if (!fleet.enabled()) dev_[0].servers = std::max(1, cfg_.vworkers);
    for (size_t d = 0; d < fleet.devices.size(); ++d) {
        dev_[d].capability =
            std::max<int64_t>(1, fleet.devices[d].capability);
    }
}

void
VirtualScheduler::startOrQueue(size_t index, int stage, int64_t t)
{
    Flight &f = flights_.at(index);
    const StagePlan &sp = f.stages[size_t(stage)];
    DeviceState &ds = dev_[size_t(sp.device)];
    if (ds.busy == ds.servers) {
        ds.waiting[size_t(f.priority)].push_back({index, stage});
        ++ds.waiting_total;
        ++waiting_total_;
        ++waiting_by_prio_[size_t(f.priority)];
        return;
    }
    if (stage == 0) f.first_start = t;
    const int64_t dur =
        std::max<int64_t>(1, duration_(index, stage, sp.device)) +
        sp.handoff_vus;
    ++ds.busy;
    running_.push({t + dur, index, t, sp.device, stage});
}

void
VirtualScheduler::completeOne()
{
    const Running done = running_.top();
    running_.pop();
    last_finish_ = std::max(last_finish_, done.finish);
    const auto it = flights_.find(done.index);
    const std::vector<StagePlan> &stages = it->second.stages;
    const bool last = size_t(done.stage) + 1 == stages.size();
    on_finish_({done.index, done.stage, done.device, done.start, done.finish,
                stages[size_t(done.stage)].handoff_vus, last,
                it->second.first_start});
    DeviceState &ds = dev_[size_t(done.device)];
    --ds.busy;
    // Advance the pipeline: the next stage either claims a server of its
    // device right now (its busy state is current at done.finish — the
    // heap materialized every earlier completion first) or joins that
    // device's FIFO.
    if (last) {
        flights_.erase(it);
    } else {
        startOrQueue(done.index, done.stage + 1, done.finish);
    }
    // Hand the freed server to the device's highest-priority waiter (FIFO
    // within a priority) — unless a continuation stage just reclaimed it.
    // Starting it at done.finish is time-correct: see the laziness
    // invariant in the header. Only the device's own waiters are
    // candidates: placement happened at arrival and is never revisited.
    if (ds.busy == ds.servers) return;
    for (int prio = 0; prio < VirtualConfig::kPriorities; ++prio) {
        auto &fifo = ds.waiting[size_t(prio)];
        if (fifo.empty()) continue;
        const Waiter next = fifo.front();
        fifo.pop_front();
        --ds.waiting_total;
        --waiting_total_;
        --waiting_by_prio_[size_t(prio)];
        startOrQueue(next.index, next.stage, done.finish);
        break;
    }
}

void
VirtualScheduler::advanceTo(int64_t t)
{
    while (!running_.empty() && running_.top().finish <= t) completeOne();
}

bool
VirtualScheduler::admitWaiter(int priority, std::string *reject_reason)
{
    if (cfg_.max_queue >= 0 && int(waiting_total_) >= cfg_.max_queue) {
        *reject_reason = strCat("queue full (", waiting_total_,
                                " waiting, max-queue ", cfg_.max_queue, ")");
        return false;
    }
    const int64_t quota = cfg_.quota[size_t(priority)];
    if (quota >= 0 && waiting_by_prio_[size_t(priority)] >= quota) {
        *reject_reason = strCat("priority-", priority, " quota reached (",
                                waiting_by_prio_[size_t(priority)],
                                " waiting, quota ", quota, ")");
        return false;
    }
    return true;
}

int
VirtualScheduler::place(const ArrivalHints &hints) const
{
    const auto eligible = [&](size_t d) {
        return hints.eligible.empty() || hints.eligible[d] != 0;
    };
    const auto load = [&](size_t d) {
        return int64_t(dev_[d].waiting_total) + dev_[d].busy;
    };

    int best = -1;
    for (size_t d = 0; d < dev_.size(); ++d) {
        if (!eligible(d)) continue;
        if (best < 0) {
            best = int(d);
            continue;
        }
        const size_t b = size_t(best);
        bool wins = false;
        switch (place_) {
        case PlacementPolicy::LeastLoaded:
            wins = load(d) < load(b);
            break;
        case PlacementPolicy::Capability: {
            // Minimize (load + 1) / capability without division; ties go
            // to the bigger device, then the lower index.
            const int64_t lhs = (load(d) + 1) * dev_[b].capability;
            const int64_t rhs = (load(b) + 1) * dev_[d].capability;
            wins = lhs < rhs ||
                   (lhs == rhs && dev_[d].capability > dev_[b].capability);
            break;
        }
        case PlacementPolicy::Affinity: {
            // Warmest device wins; load breaks score ties so a cold
            // fleet degrades to least-loaded.
            const int64_t sd = hints.affinity.empty() ? 0
                                                      : hints.affinity[d];
            const int64_t sb = hints.affinity.empty() ? 0
                                                      : hints.affinity[b];
            wins = sd > sb || (sd == sb && load(d) < load(b));
            break;
        }
        }
        if (wins) best = int(d);
    }
    FEATHER_CHECK(best >= 0, "no eligible device to place on");
    return best;
}

bool
VirtualScheduler::arrive(Arrival a, std::string *reject_reason,
                         int *placed_device)
{
    FEATHER_CHECK(!a.stages.empty(), "arrivals need >= 1 stage");
    FEATHER_CHECK(a.vus >= last_arrival_,
                  "arrivals must be fed in non-decreasing time order");
    FEATHER_CHECK(a.priority >= 0 && a.priority < VirtualConfig::kPriorities,
                  "priority out of range");
    for (size_t k = 0; k < a.stages.size(); ++k) {
        const int d = a.stages[k].device;
        FEATHER_CHECK((k == 0 && d == -1) ||
                          (d >= 0 && size_t(d) < dev_.size()),
                      "stage pinned to an unknown device");
    }
    last_arrival_ = a.vus;
    advanceTo(a.vus);

    StagePlan &first = a.stages.front();
    if (first.device < 0) {
        first.device = place(a.hints);
        if (!a.hints.handoff_vus.empty()) {
            first.handoff_vus += a.hints.handoff_vus[size_t(first.device)];
        }
    }
    const DeviceState &ds = dev_[size_t(first.device)];
    if (ds.busy == ds.servers && !admitWaiter(a.priority, reject_reason)) {
        return false;
    }
    if (placed_device) *placed_device = first.device;
    flights_[a.index] = {std::move(a.stages), a.priority, 0};
    startOrQueue(a.index, 0, a.vus);
    return true;
}

void
VirtualScheduler::drain()
{
    while (!running_.empty()) completeOne();
    FEATHER_CHECK(waiting_total_ == 0 && flights_.empty(),
                  "waiters cannot outlive the running set");
}

} // namespace daemon
} // namespace feather
