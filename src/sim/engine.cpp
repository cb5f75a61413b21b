#include "sim/engine_mode.hpp"

namespace feather {
namespace sim {

std::optional<EngineMode>
parseEngineMode(const std::string &name)
{
    if (name == "cycle") return EngineMode::Cycle;
    if (name == "analytic") return EngineMode::Analytic;
    return std::nullopt;
}

std::string
toString(EngineMode mode)
{
    switch (mode) {
    case EngineMode::Cycle: return "cycle";
    case EngineMode::Analytic: return "analytic";
    }
    return "?";
}

const std::vector<std::string> &
engineModeNames()
{
    static const std::vector<std::string> names = {"cycle", "analytic"};
    return names;
}

} // namespace sim
} // namespace feather
