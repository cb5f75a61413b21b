#pragma once

/**
 * @file
 * The yardstick: a fixed kernel of the benchmark's own that the harness
 * times next to every timed interval, to read how fast the host runs at
 * that moment.
 *
 * The reference host is a VM whose vCPUs share their cores with other
 * tenants. A vCPU runs the simulator at one of two speeds about 1.8 times
 * apart, flipping every few hundred milliseconds to seconds, and the share
 * of slow time drifts over minutes. Plain wall times of the same code then
 * spread by 10-30% between runs. The harness scales each timed interval by
 * kYardstickRefS / (yardstick time next to it), so a figure reads as the
 * time the interval would have taken at the host speed under which the
 * yardstick takes kYardstickRefS.
 *
 * The kernel imitates the simulator's inner loop: int8 multiply-accumulate
 * over a 32 x 32 array of processing elements, each with a valid bit, then
 * a column reduction routed by index. A kernel that loads the core the way
 * the program does slows down when the program does. The kernel never
 * calls the program, and its code and data sit on cache lines of their
 * own, so a change to the program can move neither its work nor its speed.
 */

#include <vector>

namespace bench {

/** The reference: seconds of one yardstick run. Any fixed value would do;
 *  it only sets the host speed the figures are read at. 0.4 ms is about
 *  the faster of the reference host's two speeds (4-vCPU Intel Xeon VM;
 *  see benchmark/README.md). */
constexpr double kYardstickRefS = 0.4e-3;

/** Run the yardstick once on the calling thread; @return its seconds. */
double yardstickS();

/** Run the yardstick once on each CPU the calling thread may use, in
 *  turn, then restore its CPU affinity; append the seconds to @p out. */
void yardstickEachCpuS(std::vector<double> *out);

} // namespace bench
