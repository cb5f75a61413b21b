#include "model/report.hpp"

#include <cstdio>

#include "common/log.hpp"
#include "common/table.hpp"

namespace feather {
namespace model {

namespace {

/** Fixed-precision double: deterministic and locale-independent. */
std::string
fmtFixed(double v)
{
    return fmtDouble(v, 4);
}

std::string
status(const ScheduleResult &r)
{
    return r.bitExact() ? "ok" : "MISMATCH";
}

/** The device column exists only with an explicit fleet, so the classic
 *  single-device CSV/JSON schemas stay byte-identical. */
std::vector<std::string>
columns(bool fleet)
{
    std::vector<std::string> cols = {
        "model",      "schedule",   "selected",       "aw",
        "ah",         "seed",       "layer",          "op",
        "dataflow",   "mapping",    "in_layout",      "out_layout",
        "est_cycles", "reorder_cycles", "cycles",     "macs",
        "rd_stalls",  "wr_stalls",  "engine_mode",    "sim_wall_us",
        "arena_peak_bytes", "status"};
    if (fleet) cols.insert(cols.begin() + 8, "device");
    return cols;
}

std::string
layerJson(const LayerChoice &l, bool fleet)
{
    const std::string device =
        fleet ? strCat("\"device\":\"", jsonEscape(l.device_name), "\",")
              : std::string();
    return strCat(
        "{\"layer\":\"", jsonEscape(l.layer), "\",\"op\":\"",
        jsonEscape(l.op), "\",", device, "\"dataflow\":\"",
        sim::toString(l.dataflow),
        "\",\"mapping\":\"", jsonEscape(l.plan.mapping.toString()),
        "\",\"in_layout\":\"", l.plan.in_layout.toString(),
        "\",\"out_layout\":\"", l.plan.out_layout.toString(),
        "\",\"est_cycles\":", l.est_cycles,
        ",\"reorder_cycles\":", l.reorder_cycles, ",\"cycles\":", l.cycles,
        ",\"macs\":", l.macs, ",\"rd_stalls\":", l.read_stalls,
        ",\"wr_stalls\":", l.write_stalls, "}");
}

} // namespace

std::string
ScheduleReport::toCsv() const
{
    const bool fleet = !comparison.primary().fleet.empty();
    Table t(columns(fleet));
    for (size_t s = 0; s < comparison.schedules.size(); ++s) {
        const ScheduleResult &r = comparison.schedules[s];
        for (const LayerChoice &l : r.layers) {
            std::vector<std::string> row = {
                csvSafe(r.model), csvSafe(r.schedule),
                s == 0 ? "1" : "0", std::to_string(r.aw),
                std::to_string(r.ah), std::to_string(r.seed),
                csvSafe(l.layer), l.op, sim::toString(l.dataflow),
                csvSafe(l.plan.mapping.toString()),
                l.plan.in_layout.toString(),
                l.plan.out_layout.toString(),
                std::to_string(l.est_cycles),
                std::to_string(l.reorder_cycles),
                std::to_string(l.cycles), std::to_string(l.macs),
                std::to_string(l.read_stalls),
                std::to_string(l.write_stalls),
                sim::toString(r.engine),
                std::to_string(r.sim_wall_us),
                std::to_string(r.arena_peak_bytes), status(r)};
            if (fleet) {
                row.insert(row.begin() + 8, csvSafe(l.device_name));
            }
            t.addRow(row);
        }
    }
    return t.toCsv();
}

std::string
ScheduleReport::toJson() const
{
    const ScheduleResult &p = comparison.primary();
    const bool fleet = !p.fleet.empty();
    std::string out = strCat(
        "{\"model\":\"", jsonEscape(p.model), "\",\"schedule\":\"",
        jsonEscape(p.schedule), "\",\"aw\":", p.aw, ",\"ah\":", p.ah,
        ",\"seed\":", p.seed,
        fleet ? strCat(",\"fleet\":\"", jsonEscape(p.fleet), "\"")
              : std::string(),
        ",\"layers\":[");
    for (size_t i = 0; i < p.layers.size(); ++i) {
        if (i > 0) out += ",";
        out += layerJson(p.layers[i], fleet);
    }
    out += "],\"alternatives\":[";
    bool first = true;
    for (size_t s = 1; s < comparison.schedules.size(); ++s) {
        const ScheduleResult &r = comparison.schedules[s];
        if (!first) out += ",";
        first = false;
        out += strCat("{\"schedule\":\"", jsonEscape(r.schedule),
                      "\",\"est_cycles\":", r.est_total,
                      ",\"cycles\":", r.cycles, ",\"status\":\"", status(r),
                      "\"}");
    }
    const int best = comparison.bestFixed();
    const std::string best_name =
        best >= 0 ? comparison.schedules[size_t(best)].schedule : "";
    const int64_t best_cycles =
        best >= 0 ? comparison.schedules[size_t(best)].cycles : 0;
    out += strCat(
        "],\"summary\":{\"est_cycles\":", p.est_total,
        ",\"cycles\":", p.cycles, ",\"macs\":", p.macs,
        ",\"utilization\":", fmtFixed(p.utilization()),
        ",\"rd_stalls\":", p.read_stalls, ",\"wr_stalls\":", p.write_stalls,
        ",\"checked\":", p.checked, ",\"mismatches\":", p.mismatches,
        ",\"engine_mode\":\"", sim::toString(p.engine),
        "\",\"sim_wall_us\":", p.sim_wall_us,
        ",\"arena_peak_bytes\":", p.arena_peak_bytes,
        ",\"status\":\"", status(p), "\",\"best_fixed\":\"",
        jsonEscape(best_name), "\",\"best_fixed_cycles\":", best_cycles,
        ",\"speedup_vs_best_fixed\":",
        fmtFixed(comparison.speedupVsBestFixed()),
        fleet ? strCat(",\"search_nodes\":", p.search_nodes,
                       ",\"handoffs\":", p.handoffs,
                       ",\"handoff_cycles\":", p.handoff_cycles)
              : std::string(),
        ",\"plan_cache\":{\"hits\":", comparison.cache.hits,
        ",\"misses\":", comparison.cache.misses,
        ",\"entries\":", comparison.cache.entries, "}}}");
    return out;
}

std::string
ScheduleReport::layerTable() const
{
    const ScheduleResult &p = comparison.primary();
    const bool fleet = !p.fleet.empty();
    std::vector<std::string> headers = {
        "layer", "op", "dataflow", "mapping", "iAct layout",
        "oAct layout", "est cycles", "reorder", "cycles", "util",
        "rd stalls", "wr stalls"};
    if (fleet) headers.insert(headers.begin() + 2, "device");
    Table t(headers);
    const int num_pes = p.aw * p.ah;
    for (const LayerChoice &l : p.layers) {
        const double util =
            l.cycles > 0
                ? double(l.macs) / (double(l.cycles) * num_pes)
                : 0.0;
        std::vector<std::string> row = {
            l.layer, l.op, sim::toString(l.dataflow),
            l.plan.mapping.toString(), l.plan.in_layout.toString(),
            l.plan.out_layout.toString(), std::to_string(l.est_cycles),
            std::to_string(l.reorder_cycles), std::to_string(l.cycles),
            fmtPercent(util), std::to_string(l.read_stalls),
            std::to_string(l.write_stalls)};
        if (fleet) row.insert(row.begin() + 2, l.device_name);
        t.addRow(row);
    }
    return t.toString();
}

std::string
ScheduleReport::comparisonTable() const
{
    Table t({"schedule", "est cycles", "cycles", "util", "vs best fixed",
             "status"});
    const int best = comparison.bestFixed();
    const int64_t best_cycles =
        best >= 0 ? comparison.schedules[size_t(best)].cycles : 0;
    for (size_t s = 0; s < comparison.schedules.size(); ++s) {
        const ScheduleResult &r = comparison.schedules[s];
        const double speedup =
            r.cycles > 0 && best_cycles > 0
                ? double(best_cycles) / double(r.cycles)
                : 0.0;
        t.addRow({(s == 0 ? "* " : "  ") + r.schedule,
                  std::to_string(r.est_total), std::to_string(r.cycles),
                  fmtPercent(r.utilization()), fmtRatio(speedup),
                  status(r)});
    }
    return t.toString();
}

std::string
ScheduleReport::summaryLine() const
{
    const ScheduleResult &p = comparison.primary();
    const int best = comparison.bestFixed();
    std::string out = strCat("total cycles: ", p.cycles, " (estimated ",
                             p.est_total, ")");
    if (best >= 0) {
        const ScheduleResult &b = comparison.schedules[size_t(best)];
        out += strCat("; best fixed dataflow: ", b.schedule, " at ",
                      b.cycles, " cycles; speedup vs best fixed: ",
                      fmtRatio(comparison.speedupVsBestFixed()));
    }
    if (!p.fleet.empty()) {
        out += strCat("; hand-offs: ", p.handoffs, " (",
                      p.handoff_cycles, " est cycles, ", p.search_nodes,
                      " DP nodes)");
    }
    out += strCat("; final activations bit-exact vs reference_ops: ",
                  p.bitExact() ? "yes" : "NO", "\n");
    return out;
}

} // namespace model
} // namespace feather
