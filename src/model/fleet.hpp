#pragma once

/**
 * @file
 * Heterogeneous device fleets for whole-graph scheduling.
 *
 * A fleet is an ordered list of named simulated devices — FEATHER
 * instances of arbitrary PE-array sizes plus any arch-zoo design point —
 * parsed from a `--fleet` value:
 *
 *   --fleet feather:16x16,feather:32x32,tpu-like
 *
 * Spec grammar (comma-separated entries; or a file path, one entry per
 * line with '#' comments and commas allowed):
 *
 *   entry := "feather:<COLS>x<ROWS>"       custom FEATHER instance
 *          | <arch-zoo name>               baselines::archZoo() entry
 *
 * The same FleetSpec drives two consumers: the Scheduler splits a
 * ModelGraph's layers across the devices (pipeline parallelism, DP state
 * (layer, device, candidate), inter-device edges priced by handoffCost),
 * and the serving daemon shards independent requests over the same
 * devices (daemon::FleetConfig extends this with a placement policy).
 * Duplicate entries get a "#2", "#3"... suffix so report names stay
 * unique.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace feather {
namespace model {

/** One named device of a simulated fleet. */
struct FleetDevice
{
    std::string name; ///< unique report name ("feather:32x32")
    /** Array shape requests resolve to when they do not pin aw/ah. */
    int aw = 16;
    int ah = 16;
    /** Placement weight of the daemon's Capability policy (PE count). */
    int64_t capability = 256;
};

/** An ordered device fleet. */
struct FleetSpec
{
    std::vector<FleetDevice> devices;
    /** The normalized spec text ("a,b,c"), echoed in reports. */
    std::string spec;

    bool enabled() const { return !devices.empty(); }

    /** Index of the device named @p name; -1 when unknown. */
    int deviceIndex(const std::string &name) const;
};

/**
 * Parse a --fleet value: @p text is a file path (when a file of that name
 * is readable) or an inline spec. False with a one-line @p error on an
 * unknown device name (listing the valid ones), malformed feather:<C>x<R>
 * shapes, or an empty/oversized fleet.
 */
bool parseFleetSpec(const std::string &text, FleetSpec *out,
                    std::string *error);

} // namespace model
} // namespace feather
