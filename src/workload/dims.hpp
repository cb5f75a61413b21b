#pragma once

/**
 * @file
 * Named tensor dimensions for the seven-dimensional convolution loop nest
 * (Fig. 1 of the paper) and GEMM.
 *
 * Convolution:  N batch, M kernels, C input channels, H/W input spatial,
 *               P/Q output spatial, R/S kernel spatial.
 * GEMM (Fig. 10 notation): inputs M x K, weights N x K, outputs M x N;
 *               K is the reduction dimension.
 */

#include <cstdint>
#include <optional>
#include <string>

namespace feather {

/** Named dimension of a workload tensor. */
enum class Dim : uint8_t { N, M, C, H, W, P, Q, R, S, K };

/** Number of distinct Dim values. */
constexpr int kNumDims = 10;

/** One-letter name used in layout strings ("HWC_C4W8") and traces. */
char dimName(Dim d);

/** Parse a one-letter dimension name; nullopt on unknown letters. */
std::optional<Dim> parseDim(char c);

std::string toString(Dim d);

} // namespace feather
