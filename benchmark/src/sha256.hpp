#pragma once

/**
 * @file
 * SHA-256 (FIPS 180-4) of a byte string, as lowercase hex. The harness
 * prints the digest of each workload's generated inputs so two runs can
 * show they replayed byte-identical inputs.
 */

#include <string>

namespace bench {

std::string sha256Hex(const std::string &data);

} // namespace bench
