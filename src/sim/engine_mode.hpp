#pragma once

/**
 * @file
 * The two simulation engine tiers.
 *
 * Every layer/chain execution goes through one body, sim::runChain
 * (sim/driver.hpp; sim::runLayer is a one-step chain). It resolves the same
 * mappings and layouts in both tiers; RunOptions::engine decides only
 * whether data moves and where each layer's stats come from (the replay,
 * or the closed-form model of src/feather/analytic.hpp).
 * serve::BatchEngine and model::Scheduler use analytic mode to enumerate
 * and prune candidate spaces and fall back to cycle mode for final
 * verified runs.
 *
 * Kept in its own header so option structs (sim::RunOptions,
 * sim::ScenarioOptions, serve job specs) can name a mode without pulling
 * in the driver.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace feather {
namespace sim {

/** Documented accuracy bound of the analytic tier: the relative error of
 *  its cycle estimate vs the cycle engine is at most this on the built-in
 *  scenario grid (measured worst case 10.3%, most points exact), and the
 *  analytic ranking of dataflow candidates at a fixed (scenario, array)
 *  point matches the cycle-accurate ranking. Locked by
 *  tests/test_engine_modes.cpp; tighten only with fresh measurements. */
constexpr double kAnalyticBound = 0.15;

/** Which execution tier a run uses. */
enum class EngineMode : uint8_t {
    /** Bit-exact NoC replay: every partial sum flows through NEST, the
     *  routed BIRRD network, the OB and the QM; counters are exact and
     *  outputs verify against the reference operators. */
    Cycle,
    /** Closed-form cycles from the mapping's loop structure plus one
     *  probe step of address arithmetic — no data movement, no
     *  verification. Orders of magnitude faster; estimates carry a
     *  documented error bound. */
    Analytic,
};

/** Parse "cycle" or "analytic"; nullopt on anything else. */
std::optional<EngineMode> parseEngineMode(const std::string &name);

std::string toString(EngineMode mode);

/** Valid --engine values, in presentation order (for error messages). */
const std::vector<std::string> &engineModeNames();

} // namespace sim
} // namespace feather
