#pragma once

/**
 * @file
 * The one shared definition of "wall-clock report field" and the
 * normalizers that zero such fields before determinism comparisons.
 *
 * Report schemas mark wall-clock measurements — the only legitimately
 * non-deterministic report fields — with the `_wall_us` name suffix
 * (sim_wall_us, queue_wall_us, service_wall_us, run_wall_us, ...). The
 * unit-test suites call these functions directly and the end-to-end
 * golden runs (tests/golden_run.cmake) go through the
 * `feather_report_norm` binary, so adding a wall field to any schema
 * needs no new zeroing code anywhere: follow the suffix convention and
 * every consumer zeroes it.
 */

#include <string>

namespace feather {

/** True when @p name denotes a wall-clock field (suffix `_wall_us`). */
bool isWallReportField(const std::string &name);

/** Zero every wall-clock column of a CSV report (header names the
 *  columns; data cells in those columns become "0"). */
std::string zeroWallCsv(const std::string &csv);

/** Zero every `"<wall field>":<integer>` value in a JSON document (also
 *  works on JSON-lines: the scan is line-agnostic). */
std::string zeroWallJson(std::string json);

/** Normalize @p text as @p format ("csv", "json", or "auto": JSON when
 *  the first non-space character is '{'). */
std::string zeroWallReport(const std::string &text,
                           const std::string &format = "auto");

} // namespace feather
