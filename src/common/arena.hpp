#pragma once

/**
 * @file
 * Bump-pointer arena for per-job simulation scratch.
 *
 * The cycle simulator's inner loops need many small, short-lived buffers
 * (per-row iact staging, bank-conflict counters, wave assignment tables).
 * Allocating them with vectors inside the step loop dominates batch-sweep
 * profiles with malloc traffic. An Arena turns all of that into pointer
 * bumps: a run resets the arena once, carves its scratch out of a few
 * large blocks, and drops everything wholesale at the next reset — no
 * per-buffer free, no churn, and the blocks themselves are reused across
 * resets (so across the layers of a chain and the steps of a batch job).
 *
 * Only trivially-destructible element types are supported: reset() never
 * runs destructors. peakBytes() reports the high-water mark of live bytes
 * ever requested, which the serve/model reports export per job as
 * `arena_peak_bytes`.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/log.hpp"

namespace feather {

/** Chunked bump allocator; memory is recycled on reset(), freed on
 *  destruction. */
class Arena
{
  public:
    /** @param block_bytes granularity of the underlying blocks. */
    explicit Arena(size_t block_bytes = 64 * 1024)
        : block_bytes_(block_bytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Raw allocation; the returned memory is uninitialized. */
    void *
    alloc(size_t bytes, size_t align = alignof(std::max_align_t))
    {
        FEATHER_CHECK(align > 0 && (align & (align - 1)) == 0,
                      "arena alignment must be a power of two, got ", align);
        if (bytes == 0) bytes = 1;
        // Bump within the current block, or move on to the next (recycled
        // or fresh) block large enough for the request.
        while (true) {
            if (block_ < blocks_.size()) {
                Block &b = blocks_[block_];
                const size_t at = (b.used + align - 1) & ~(align - 1);
                if (at + bytes <= b.size) {
                    b.used = at + bytes;
                    live_bytes_ += bytes;
                    if (live_bytes_ > peak_bytes_) peak_bytes_ = live_bytes_;
                    return b.data.get() + at;
                }
                ++block_;
                continue;
            }
            Block b;
            b.size = bytes + align > block_bytes_ ? bytes + align
                                                  : block_bytes_;
            b.data.reset(new unsigned char[b.size]);
            blocks_.push_back(std::move(b));
        }
    }

    /** Typed array of @p n elements (uninitialized; trivial T only). */
    template <typename T>
    T *
    allocArray(size_t n)
    {
        static_assert(std::is_trivially_destructible<T>::value &&
                          std::is_trivially_copyable<T>::value,
                      "Arena holds trivial types only (reset() skips "
                      "destructors)");
        return static_cast<T *>(alloc(n * sizeof(T), alignof(T)));
    }

    /** Drop every allocation (keeping the blocks for reuse). */
    void
    reset()
    {
        for (Block &b : blocks_) b.used = 0;
        block_ = 0;
        live_bytes_ = 0;
    }

    /** High-water mark, over the arena's lifetime, of the bytes allocated
     *  since a reset. */
    size_t peakBytes() const { return peak_bytes_; }

  private:
    struct Block
    {
        std::unique_ptr<unsigned char[]> data;
        size_t size = 0;
        size_t used = 0;
    };

    size_t block_bytes_;
    std::vector<Block> blocks_;
    size_t block_ = 0;      ///< first block with room
    size_t live_bytes_ = 0;
    size_t peak_bytes_ = 0;
};

} // namespace feather
