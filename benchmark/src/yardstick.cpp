#include "yardstick.hpp"

#include <sched.h>

#include <array>
#include <cstdint>

#include "trace.hpp"

namespace bench {

namespace {

constexpr int kPes = 32;     ///< array side
constexpr int kSteps = 64;   ///< distinct input columns
constexpr int kCycles = 256; ///< timed steps per run

/** The kernel's operands, made once per thread from a fixed LCG. */
struct alignas(64) Operands
{
    std::array<int8_t, kPes * kPes> weight{};
    std::array<uint8_t, kPes * kPes> valid{};
    std::array<int8_t, kPes * kSteps> input{};
    std::array<int32_t, kPes * kPes> psum{};
    std::array<int32_t, kPes * kSteps> out{};

    Operands()
    {
        uint32_t x = 12345;
        const auto next = [&x]() {
            x = x * 1664525u + 1013904223u;
            return x >> 16;
        };
        for (int8_t &w : weight) w = int8_t(next());
        for (uint8_t &v : valid) v = uint8_t(next() % 5 != 0);
        for (int8_t &a : input) a = int8_t(next());
    }
};

/** Keeps the result observable so the compiler cannot drop the loop. */
volatile int32_t g_sink = 0;

/**
 * The timed loop. It starts on a cache line of its own: left where the
 * linker happens to put it, the same loop ran up to 40% faster or slower
 * depending on the size of the code linked before it, so any change to the
 * program could have moved every figure.
 */
__attribute__((noinline, aligned(64))) void
kernel(Operands &op)
{
    for (int step = 0; step < kCycles; ++step) {
        const int col = step % kSteps;
        for (int r = 0; r < kPes; ++r) {
            const int32_t a = op.input[size_t(r * kSteps + col)];
            for (int c = 0; c < kPes; ++c) {
                const size_t pe = size_t(r * kPes + c);
                if (op.valid[pe]) {
                    op.psum[pe] += a * op.weight[pe];
                } else {
                    op.psum[pe] >>= 1;
                }
            }
        }
        for (int c = 0; c < kPes; ++c) {
            int32_t sum = 0;
            for (int r = 0; r < kPes; ++r) sum += op.psum[size_t(r * kPes + c)];
            op.out[size_t(col * kPes + ((c * 7 + col) & (kPes - 1)))] = sum;
        }
    }
}

} // namespace

double
yardstickS()
{
    thread_local Operands op;
    op.psum.fill(0); // 256 steps cannot overflow from zero
    const int64_t t0 = nowNs();
    kernel(op);
    const int64_t t1 = nowNs();
    g_sink = op.out[5];
    return double(t1 - t0) * 1e-9;
}

void
yardstickEachCpuS(std::vector<double> *out)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
        out->push_back(yardstickS());
        return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        sched_setaffinity(0, sizeof(one), &one);
        out->push_back(yardstickS());
    }
    sched_setaffinity(0, sizeof(allowed), &allowed);
}

} // namespace bench
