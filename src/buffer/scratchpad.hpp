#pragma once

/**
 * @file
 * Data-holding buffer models used by the cycle-level simulator.
 *
 * - Scratchpad<T>: logical (num_lines x line_size) buffer with access stats,
 *   used for StrB and baseline accelerators.
 * - BankedScratchpad<T>: FEATHER's StaB organization (§III-C1): AW banks
 *   side-by-side, each one word wide, with *independent per-bank write
 *   addresses* — the property BIRRD exploits to materialise a new layout
 *   during reduction (slot == bank, line == address within bank).
 * - PingPong<B>: double-buffer wrapper for StaB/StrB latency hiding and
 *   inter-layer pipelining.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "buffer/spec.hpp"
#include "common/log.hpp"
#include "layout/layout.hpp"

namespace feather {

/** Logical 2D buffer that actually stores words. */
template <typename T>
class Scratchpad
{
  public:
    Scratchpad() = default;

    explicit Scratchpad(BufferSpec spec, T fill = T{})
        : spec_(spec),
          data_(size_t(spec.num_lines * spec.line_size), fill)
    {
    }

    const BufferSpec &spec() const { return spec_; }

    T
    read(int64_t line, int64_t slot)
    {
        checkAddr(line, slot);
        ++stats_.word_reads;
        return data_[size_t(line * spec_.line_size + slot)];
    }

    void
    write(int64_t line, int64_t slot, T value)
    {
        checkAddr(line, slot);
        ++stats_.word_writes;
        data_[size_t(line * spec_.line_size + slot)] = value;
    }

    /** Peek without counting an access (for test assertions / dumps). */
    T
    peek(int64_t line, int64_t slot) const
    {
        checkAddr(line, slot);
        return data_[size_t(line * spec_.line_size + slot)];
    }

    /** Charge a multi-line read access and return its stall cycles. */
    int64_t
    chargeReadAccess(const std::vector<int64_t> &lines)
    {
        stats_.line_reads += int64_t(lines.size());
        const int64_t cycles = readConflictCycles(spec_, lines);
        stats_.conflict_stall_cycles += cycles - 1;
        return cycles;
    }

    AccessStats &stats() { return stats_; }
    const AccessStats &stats() const { return stats_; }

  private:
    void
    checkAddr(int64_t line, int64_t slot) const
    {
        FEATHER_CHECK(line >= 0 && line < spec_.num_lines, "line ", line,
                      " out of range (", spec_.num_lines, ")");
        FEATHER_CHECK(slot >= 0 && slot < spec_.line_size, "slot ", slot,
                      " out of range (", spec_.line_size, ")");
    }

    BufferSpec spec_;
    std::vector<T> data_;
    AccessStats stats_;
};

/**
 * FEATHER StaB: @ref numBanks() banks of one word width, each @ref depth()
 * entries deep, with independent addressing per bank.
 *
 * Storage is demand-sized: each bank holds words only up to its highest
 * written address, or the region a layer sized up front (growBanks), and
 * an address never written reads as the fill value. depth() still bounds
 * every access, so capacity errors are unchanged; a run that touches a few
 * KB of a multi-MB StaB allocates a few KB.
 */
template <typename T>
class BankedScratchpad
{
  public:
    BankedScratchpad() = default;

    BankedScratchpad(int64_t num_banks, int64_t depth, T fill = T{})
        : num_banks_(num_banks), depth_(depth), fill_(fill),
          banks_(size_t(num_banks))
    {
    }

    int64_t numBanks() const { return num_banks_; }
    int64_t depth() const { return depth_; }

    T
    read(int64_t bank, int64_t addr)
    {
        ++stats_.word_reads;
        return peek(bank, addr);
    }

    void
    write(int64_t bank, int64_t addr, T value)
    {
        checkAddr(bank, addr);
        ++stats_.word_writes;
        grownTo(bank, addr + 1)[size_t(addr)] = value;
    }

    T
    peek(int64_t bank, int64_t addr) const
    {
        checkAddr(bank, addr);
        const std::vector<T> &b = banks_[size_t(bank)];
        return size_t(addr) < b.size() ? b[size_t(addr)] : fill_;
    }

    /**
     * Write @p n contiguous words into one bank starting at @p addr — the
     * bulk DMA path for host loads: one bounds check, one memcpy-able copy,
     * and the same per-word access accounting as n write() calls.
     */
    void
    writeRange(int64_t bank, int64_t addr, const T *src, int64_t n)
    {
        if (n <= 0) return;
        checkAddr(bank, addr);
        checkAddr(bank, addr + n - 1);
        stats_.word_writes += n;
        std::copy(src, src + n,
                  grownTo(bank, addr + n).begin() + ptrdiff_t(addr));
    }

    /** Grow every bank to hold at least @p words words (fill beyond what
     *  it held), so the writes of a region sized once never grow a bank
     *  one word at a time. Stored words and access stats are unchanged. */
    void
    growBanks(int64_t words)
    {
        if (words <= 0) return;
        checkAddr(0, words - 1);
        for (int64_t b = 0; b < num_banks_; ++b) grownTo(b, words);
    }

    /** Bulk peek of @p n contiguous words of one bank (no access stats,
     *  matching peek()). */
    void
    peekRange(int64_t bank, int64_t addr, T *dst, int64_t n) const
    {
        if (n <= 0) return;
        checkAddr(bank, addr);
        checkAddr(bank, addr + n - 1);
        const std::vector<T> &b = banks_[size_t(bank)];
        const int64_t stored =
            std::clamp<int64_t>(int64_t(b.size()) - addr, 0, n);
        std::copy_n(b.begin() + ptrdiff_t(addr), stored, dst);
        std::fill(dst + stored, dst + n, fill_);
    }

    /**
     * Load a tensor into the scratchpad under @p bl: element coords map to
     * (line -> address, slot -> bank). The value provider @p get is called
     * with each element coordinate.
     */
    template <typename GetFn>
    void
    loadWithLayout(const BoundLayout &bl, GetFn get)
    {
        FEATHER_CHECK(bl.lineSize() <= num_banks_,
                      "layout line size ", bl.lineSize(),
                      " exceeds bank count ", num_banks_);
        FEATHER_CHECK(bl.numLines() <= depth_, "layout needs ",
                      bl.numLines(), " lines, scratchpad depth ", depth_);
        for (int64_t line = 0; line < bl.numLines(); ++line) {
            for (int64_t slot = 0; slot < bl.lineSize(); ++slot) {
                const Coord c = bl.coordAt({line, slot});
                write(slot, line, get(c));
            }
        }
    }

    AccessStats &stats() { return stats_; }
    const AccessStats &stats() const { return stats_; }

  private:
    void
    checkAddr(int64_t bank, int64_t addr) const
    {
        FEATHER_CHECK(bank >= 0 && bank < num_banks_, "bank ", bank,
                      " out of range (", num_banks_, ")");
        FEATHER_CHECK(addr >= 0 && addr < depth_, "addr ", addr,
                      " out of range (", depth_, ")");
    }

    /** Bank @p bank, grown (with fill) to hold at least @p size words. */
    std::vector<T> &
    grownTo(int64_t bank, int64_t size)
    {
        std::vector<T> &b = banks_[size_t(bank)];
        if (size_t(size) > b.size()) b.resize(size_t(size), fill_);
        return b;
    }

    int64_t num_banks_ = 0;
    int64_t depth_ = 0;
    T fill_{};
    std::vector<std::vector<T>> banks_;
    AccessStats stats_;
};

/** Ping-pong pair of buffers with an explicit swap. */
template <typename B>
class PingPong
{
  public:
    PingPong() = default;
    PingPong(B ping, B pong)
        : bufs_{std::move(ping), std::move(pong)}
    {
    }

    B &ping() { return bufs_[active_]; }
    B &pong() { return bufs_[1 - active_]; }
    const B &ping() const { return bufs_[active_]; }
    const B &pong() const { return bufs_[1 - active_]; }

    /** Swap roles: the written pong becomes the next layer's ping. */
    void swap() { active_ = 1 - active_; }

    int activeIndex() const { return active_; }

  private:
    B bufs_[2];
    int active_ = 0;
};

} // namespace feather
