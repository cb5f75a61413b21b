#include "buffer/spec.hpp"

#include <algorithm>
#include <unordered_map>

namespace feather {

int64_t
conflictCycles(const BufferSpec &spec, std::vector<int64_t> lines, int ports)
{
    if (lines.empty()) return 0;
    FEATHER_CHECK(ports > 0, "port count must be positive");

    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());

    // Count distinct lines per bank.
    int64_t worst = 1;
    int64_t current_bank = -1;
    int64_t in_bank = 0;
    auto flush = [&]() {
        if (in_bank > 0) {
            const int64_t cycles = (in_bank + ports - 1) / ports;
            worst = std::max(worst, cycles);
        }
    };
    for (int64_t line : lines) {
        const int64_t bank = spec.bankOf(line);
        if (bank != current_bank) {
            flush();
            current_bank = bank;
            in_bank = 0;
        }
        ++in_bank;
    }
    flush();
    return worst;
}

} // namespace feather
