#pragma once

/**
 * @file
 * The serving daemon's request wire format: one flat JSON object per line.
 *
 * A request names either a registered sim scenario or a built-in model
 * graph (whole-model scheduling), plus the per-request knobs a batch-file
 * job would carry. Parsing is strict — unknown keys, malformed values and
 * scenario/model ambiguity are rejected with a one-line reason, and so
 * is an option the request kind does not read (dataflow/layout/out_layout
 * on a model request, schedule on a scenario request) — because
 * daemon clients are programs, and a silently-ignored typo in a field name
 * would corrupt experiments instead of failing them.
 *
 * Examples:
 *   {"id":"r0","client":"c1","scenario":"gemm","aw":8,"ah":8}
 *   {"client":"c2","priority":0,"scenario":"depthwise","engine":"analytic"}
 *   {"client":"c0","model":"bert_mlp","schedule":"per-layer"}
 *   {"id":"t3","arrival_us":1500,"scenario":"quickstart_conv","seed":7}
 */

#include <cstdint>
#include <optional>
#include <string>

#include "sim/engine_mode.hpp"

namespace feather {
namespace daemon {

/** One serving request, as carried on the JSON-lines wire. */
struct Request
{
    /** Response correlation id; defaults to "r<index>" when empty. */
    std::string id;
    /** Requesting client; per-client accounting keys on this. */
    std::string client = "anon";
    /** 0 = highest, 2 = lowest; admission quotas are per priority. */
    int priority = 1;
    /**
     * Virtual arrival time in microseconds. >= 0 pins the arrival (trace
     * replay and the load generator — the deterministic modes); -1 lets
     * the daemon stamp wall-clock-since-start (interactive frontends).
     * Pinned arrivals must be non-decreasing across the request stream.
     */
    int64_t arrival_us = -1;

    /** Registered scenario name; exactly one of scenario/model is set. */
    std::string scenario;
    /** Built-in model graph name (whole-model scheduling request). */
    std::string model;
    /** Model schedule policy: per-layer, greedy, or fixed:<dataflow>
     *  (model-only). */
    std::string schedule = "per-layer";

    // Scenario/model option overrides (0/"" = the workload's default).
    int aw = 0;
    int ah = 0;
    std::string dataflow; ///< scenario-only; "" = per-layer families
    std::string layout = "concordant";     ///< scenario-only
    std::string out_layout = "concordant"; ///< scenario-only
    /** Pin the input seed; unset derives Rng::deriveStream(base, index). */
    std::optional<uint64_t> seed;
    /** Pin the engine tier; unset inherits the daemon default. */
    std::optional<sim::EngineMode> engine;

    bool isModel() const { return !model.empty(); }

    /**
     * Parse one JSON line. Returns false with @p error set on syntax
     * errors, unknown keys, out-of-range values, when scenario/model
     * are both (or neither) present, or when a non-default option does
     * not apply to the request kind. @p out keeps any fields parsed
     * before the failure (so error accounting can still attribute the
     * line to its client when that field parsed).
     */
    static bool parse(const std::string &line, Request *out,
                      std::string *error);

    /** This request as one JSON line (default-valued fields omitted) —
     *  the inverse of parse(), used to write trace files. */
    std::string toJsonLine() const;
};

} // namespace daemon
} // namespace feather
