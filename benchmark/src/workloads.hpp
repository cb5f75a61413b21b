#pragma once

/**
 * @file
 * The four benchmark workloads. Each runs in rounds: one round replays the
 * workload's whole generated input once, so every round does identical
 * simulated work and must produce identical deterministic outputs.
 *
 *   model_search       closed loop, 1 thread: Scheduler::compare per graph
 *   sweep_analytic     closed loop, 1 thread: BatchEngine::sweep per op
 *   serve_mixed        1008 scenario requests through one Daemon
 *   serve_graph_fleet  48 model/scenario requests through a fleet Daemon
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace bench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Linearly interpolated percentile @p p (0..100) of @p xs; 0 if empty. */
double percentile(std::vector<double> xs, double p);

/** What one round of a workload produced. */
struct Round
{
    uint64_t ops = 0;    ///< ops attempted
    uint64_t failed = 0; ///< errors + mismatches + invariant violations
    /** Timed wall of the round: the sum of its op times in a closed loop,
     *  first intake to last response when serving. */
    double wall_s = 0.0;
    double ref_wall_s = 0.0; ///< wall_s at the reference speed
    std::vector<double> op_ms;
    /** Per op, kYardstickRefS / the yardstick time measured next to it:
     *  op_ms[i] * op_scale[i] is the op's time at the reference speed. */
    std::vector<double> op_scale;
    int64_t sim_cycles = 0;
    /** Deterministic outputs in op order (cycles, estimates, counters):
     *  identical in every round of the same inputs. */
    std::vector<int64_t> signature;
    std::vector<std::string> violations;
    /** Deterministic figures shown beside the end-to-end metrics. */
    std::vector<Metric> extra;
    /** This workload's per-layer metrics (split rounds only). */
    std::vector<Metric> layer;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate the inputs from @p seed; @p canonical receives the bytes
     *  the harness hashes. False with @p error set on failure. */
    virtual bool generate(uint64_t seed, std::string *canonical,
                          std::string *error) = 0;

    /** One untimed op, so lazy set-up is paid before timing. */
    virtual void warmUp() = 0;

    /**
     * One round over the inputs. With @p split, a composite call is made
     * as its parts (Scheduler::evaluate + schedule per policy instead of
     * compare; expandSweep + BatchEngine::run instead of sweep) so spans
     * cover the op, and the round reports its layer metrics.
     */
    virtual Round round(bool split) = 0;

};

/** Workload names, in presentation order. */
const std::vector<std::string> &workloadNames();

/** nullptr when @p name is not a workload. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

} // namespace bench
