#pragma once

/**
 * @file
 * BIRRD functional model: Egg switches (Fig. 8) plus whole-network
 * evaluation under a per-cycle configuration.
 *
 * The four base Egg modes are the paper's Pass (=), Swap (x), Add-Left (∓)
 * and Add-Right (±). The broadcast extension the paper mentions ("extra
 * broadcast functions could be added in the Eggs to duplicate accumulated
 * results in multiple banks of StaB") is implemented as AddBoth / DupLeft /
 * DupRight and can be enabled in the router for multicast writes.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "noc/topology.hpp"

namespace feather {

/** Configuration of one 2x2 Egg switch. */
enum class EggConfig : uint8_t {
    Pass,     ///< left->left, right->right (=)
    Swap,     ///< left->right, right->left (x)
    AddLeft,  ///< sum -> left output (∓)
    AddRight, ///< sum -> right output (±)
    AddBoth,  ///< broadcast extension: sum -> both outputs
    DupLeft,  ///< broadcast extension: left input -> both outputs
    DupRight, ///< broadcast extension: right input -> both outputs
};

std::string toString(EggConfig c);

/** Optional-valued port: absent means no live data on the wire. */
using PortValue = std::optional<int64_t>;

/**
 * Evaluate one Egg: (left_in, right_in) -> (left_out, right_out).
 *
 * Add modes consume both inputs into the accumulated output; the secondary
 * output carries no live data (the output buffer's write-enable ignores it).
 */
std::pair<PortValue, PortValue> evalEgg(EggConfig cfg, PortValue left,
                                        PortValue right);

/** Full per-cycle configuration: configs[stage][switch]. */
using BirrdConfigWord = std::vector<std::vector<EggConfig>>;

/** An all-Pass configuration word for @p topo. */
BirrdConfigWord passThroughConfig(const BirrdTopology &topo);

/**
 * BIRRD network instance: topology + combinational evaluation.
 *
 * Pipeline timing (one stage per cycle, i.e. numStages() cycles of latency,
 * one new input vector accepted per cycle) is accounted by the FEATHER
 * controller; this class computes the per-word dataflow.
 */
class BirrdNetwork
{
  public:
    explicit BirrdNetwork(int num_inputs) : topo_(num_inputs) {}

    const BirrdTopology &topology() const { return topo_; }
    int numInputs() const { return topo_.numInputs(); }

    /** Pipeline latency in cycles (one per stage). */
    int latency() const { return topo_.numStages(); }

    /**
     * Push one vector of values through the network under @p config.
     * @param inputs one PortValue per input port (size numInputs())
     * @return one PortValue per output-buffer port
     */
    std::vector<PortValue> evaluate(const BirrdConfigWord &config,
                                    const std::vector<PortValue> &inputs) const;

    /** Count of switches that actively steered data (for energy). */
    int64_t activeSwitches(const BirrdConfigWord &config,
                           const std::vector<PortValue> &inputs) const;

    /**
     * Fused evaluate + activeSwitches in one propagation pass, writing the
     * output ports into @p outputs (resized to numInputs()) and reusing
     * @p scratch as the inter-stage buffer. It is the reference the
     * simulator's compiled waves (noc/router.hpp) are tested against.
     *
     * @param active_switches if non-null, incremented by the number of
     *        switches that saw live data (same count as activeSwitches()).
     */
    void evaluateInto(const BirrdConfigWord &config,
                      const std::vector<PortValue> &inputs,
                      std::vector<PortValue> &outputs,
                      std::vector<PortValue> &scratch,
                      int64_t *active_switches) const;

  private:
    BirrdTopology topo_;
};

} // namespace feather
