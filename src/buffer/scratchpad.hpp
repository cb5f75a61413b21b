#pragma once

/**
 * @file
 * Data-holding buffer models used by the cycle-level simulator. Access
 * counts live in the run's LayerStats, not here.
 *
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

#include "common/log.hpp"

namespace feather {

/**
 * FEATHER StaB: num_banks banks of one word width, each depth entries
 * deep, with independent addressing per bank.
 *
 * Storage is demand-sized: each bank holds words only up to its highest
 * written address, or the region a layer sized up front (growBanks), and
 * an address never written reads as the fill value. The depth still bounds
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

    void
    write(int64_t bank, int64_t addr, T value)
    {
        checkAddr(bank, addr);
        grownTo(bank, addr + 1)[size_t(addr)] = value;
    }

    T
    read(int64_t bank, int64_t addr) const
    {
        checkAddr(bank, addr);
        const std::vector<T> &b = banks_[size_t(bank)];
        return size_t(addr) < b.size() ? b[size_t(addr)] : fill_;
    }

    /**
     * Write @p n contiguous words into one bank starting at @p addr — the
     * bulk DMA path for host loads: one bounds check and one memcpy-able
     * copy in place of n write() calls.
     */
    void
    writeRange(int64_t bank, int64_t addr, const T *src, int64_t n)
    {
        if (n <= 0) return;
        checkAddr(bank, addr);
        checkAddr(bank, addr + n - 1);
        std::copy(src, src + n,
                  grownTo(bank, addr + n).begin() + ptrdiff_t(addr));
    }

    /** Grow every bank to hold at least @p words words (fill beyond what
     *  it held), so the writes of a region sized once never grow a bank
     *  one word at a time. Stored words are unchanged. */
    void
    growBanks(int64_t words)
    {
        if (words <= 0) return;
        checkAddr(0, words - 1);
        for (int64_t b = 0; b < num_banks_; ++b) grownTo(b, words);
    }

    /** Bulk read of @p n contiguous words of one bank. */
    void
    readRange(int64_t bank, int64_t addr, T *dst, int64_t n) const
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

  private:
    B bufs_[2];
    int active_ = 0;
};

} // namespace feather
