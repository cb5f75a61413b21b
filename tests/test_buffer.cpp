/**
 * @file
 * Unit tests for src/buffer: bank-conflict math (§V-B) and the banked StaB
 * scratchpad.
 */

#include <gtest/gtest.h>

#include "buffer/scratchpad.hpp"
#include "buffer/spec.hpp"

namespace feather {
namespace {

BufferSpec
spec(int64_t lines, int64_t line_size, int64_t lines_per_bank, int ports = 2)
{
    BufferSpec s;
    s.num_lines = lines;
    s.line_size = line_size;
    s.lines_per_bank = lines_per_bank;
    s.read_ports = ports;
    return s;
}

TEST(BufferSpec, BankMapping)
{
    const BufferSpec s = spec(16, 8, 4);
    EXPECT_EQ(s.bankOf(0), 0);
    EXPECT_EQ(s.bankOf(3), 0);
    EXPECT_EQ(s.bankOf(4), 1);
    EXPECT_EQ(s.bankOf(15), 3);
}

TEST(Conflict, NoLinesNoCycles)
{
    EXPECT_EQ(conflictCycles(spec(16, 8, 4), {}, 2), 0);
}

TEST(Conflict, WithinPortsIsOneCycle)
{
    const BufferSpec s = spec(16, 8, 4);
    EXPECT_EQ(conflictCycles(s, {0}, s.read_ports), 1);
    EXPECT_EQ(conflictCycles(s, {0, 1}, s.read_ports), 1); // 2 lines, 2 ports
    // All in different banks.
    EXPECT_EQ(conflictCycles(s, {0, 4, 8, 12}, s.read_ports), 1);
}

TEST(Conflict, PaperHalfSlowdownExample)
{
    // Fig. 4-M2/M7: four lines in one bank with dual ports -> 2 cycles,
    // i.e. the paper's "2/4 = 0.5 slowdown".
    const BufferSpec s = spec(16, 8, 16); // single bank
    EXPECT_EQ(conflictCycles(s, {0, 1, 2, 3}, s.read_ports), 2);
    // Fig. 4-M3: three lines, dual port -> ceil(3/2) = 2 cycles
    // (paper reports 2/3 = 0.667 effective rate, i.e. 2 accesses needed).
    EXPECT_EQ(conflictCycles(s, {0, 1, 2}, s.read_ports), 2);
}

TEST(Conflict, DuplicateLinesCollapse)
{
    const BufferSpec s = spec(16, 8, 16);
    EXPECT_EQ(conflictCycles(s, {3, 3, 3, 3}, s.read_ports), 1);
}

TEST(Conflict, WorstBankDominates)
{
    const BufferSpec s = spec(16, 8, 4);
    // Bank 0 gets 3 lines (2 cycles), bank 1 gets 1 line (1 cycle).
    EXPECT_EQ(conflictCycles(s, {0, 1, 2, 4}, s.read_ports), 2);
    // 5 lines in one bank with 2 ports -> 3 cycles.
    const BufferSpec one_bank = spec(8, 8, 8);
    EXPECT_EQ(conflictCycles(one_bank, {0, 1, 2, 3, 4}, 2), 3);
}

TEST(Conflict, SinglePortSram)
{
    const BufferSpec s = spec(16, 8, 16, 1);
    EXPECT_EQ(conflictCycles(s, {0, 1}, s.read_ports), 2);
    EXPECT_EQ(conflictCycles(s, {0, 1, 2, 3}, s.read_ports), 4);
}

TEST(BankedScratchpad, PerBankAddressing)
{
    BankedScratchpad<int8_t> stab(4, 8);
    // Different addresses in different banks — the property RIR relies on.
    stab.write(0, 3, 10);
    stab.write(1, 5, 20);
    stab.write(2, 0, 30);
    EXPECT_EQ(stab.read(0, 3), 10);
    EXPECT_EQ(stab.read(1, 5), 20);
    EXPECT_EQ(stab.read(2, 0), 30);
}

TEST(BankedScratchpad, UnwrittenAddressReadsFill)
{
    BankedScratchpad<int8_t> stab(4, 8, int8_t(-3));
    EXPECT_EQ(stab.read(1, 5), -3);
    stab.write(1, 6, 9);
    // Below the highest written address, but never written itself.
    EXPECT_EQ(stab.read(1, 2), -3);
    EXPECT_EQ(stab.read(1, 6), 9);
    EXPECT_EQ(stab.read(1, 7), -3);
    EXPECT_EQ(stab.read(0, 6), -3);
}

TEST(BankedScratchpad, DepthBoundsEveryAccess)
{
    BankedScratchpad<int8_t> stab(4, 8);
    stab.write(3, 7, 5);
    EXPECT_EQ(stab.read(3, 7), 5);
    EXPECT_DEATH(stab.write(3, 8, 1), "out of range");
    EXPECT_DEATH(stab.read(0, 8), "out of range");
    EXPECT_DEATH(stab.write(4, 0, 1), "out of range");
    const int8_t two[2] = {1, 2};
    EXPECT_DEATH(stab.writeRange(0, 7, two, 2), "out of range");
}

TEST(BankedScratchpad, RangesAcrossGrowthBoundary)
{
    BankedScratchpad<int8_t> stab(2, 16, int8_t(-1));
    stab.write(0, 3, 7);
    const int8_t src[4] = {10, 11, 12, 13};
    // Starts inside the stored words and ends past them.
    stab.writeRange(0, 2, src, 4);
    int8_t got[8];
    stab.readRange(0, 0, got, 8);
    const int8_t want[8] = {-1, -1, 10, 11, 12, 13, -1, -1};
    for (int i = 0; i < 8; ++i) EXPECT_EQ(got[i], want[i]) << i;
    // A read wholly past the stored words, and one on an untouched bank.
    stab.readRange(0, 10, got, 6);
    for (int i = 0; i < 6; ++i) EXPECT_EQ(got[i], -1) << i;
    stab.readRange(1, 0, got, 4);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], -1) << i;
}

TEST(BankedScratchpad, GrowBanksKeepsWordsAndFill)
{
    BankedScratchpad<int8_t> stab(2, 8, int8_t(-2));
    stab.write(0, 5, 4);
    stab.growBanks(3); // smaller than bank 0 holds: nothing shrinks
    stab.growBanks(7);
    for (int64_t a = 0; a < 8; ++a) {
        EXPECT_EQ(stab.read(0, a), a == 5 ? 4 : -2) << a;
        EXPECT_EQ(stab.read(1, a), -2) << a;
    }
    stab.growBanks(8);
    EXPECT_DEATH(stab.growBanks(9), "out of range");
}

TEST(PingPong, SwapRoles)
{
    PingPong<BankedScratchpad<int8_t>> pp(BankedScratchpad<int8_t>(2, 2),
                                          BankedScratchpad<int8_t>(2, 2));
    pp.ping().write(0, 0, 1);
    pp.pong().write(0, 0, 2);
    EXPECT_EQ(pp.ping().read(0, 0), 1);
    pp.swap();
    EXPECT_EQ(pp.ping().read(0, 0), 2);
    EXPECT_EQ(pp.pong().read(0, 0), 1);
    pp.swap();
    EXPECT_EQ(pp.ping().read(0, 0), 1);
}

} // namespace
} // namespace feather
