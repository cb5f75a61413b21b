#include "model/report.hpp"

#include "common/log.hpp"
#include "common/table.hpp"

namespace feather {
namespace model {

namespace {

std::string
status(const ScheduleResult &r)
{
    return r.bitExact() ? "ok" : "MISMATCH";
}

/** One layer: the schedule CSV row's middle block and a JSON layers[]
 *  entry. The device exists only with an explicit fleet, so the classic
 *  single-device schemas stay byte-identical. */
std::vector<FieldValue>
layerFields(const LayerChoice &l, bool fleet)
{
    std::vector<FieldValue> f = {textField("layer", l.layer),
                                 textField("op", l.op)};
    if (fleet) f.push_back(textField("device", l.device_name));
    f.insert(f.end(),
             {textField("dataflow", toString(l.dataflow)),
              textField("mapping", l.plan.mapping.toString()),
              textField("in_layout", l.plan.in_layout.toString()),
              textField("out_layout", l.plan.out_layout.toString()),
              numberField("est_cycles", l.est_cycles),
              numberField("reorder_cycles", l.reorder_cycles),
              numberField("cycles", l.cycles), numberField("macs", l.macs),
              numberField("rd_stalls", l.read_stalls),
              numberField("wr_stalls", l.write_stalls)});
    return f;
}

/** One schedule CSV row: schedule @p r (@p selected when primary), then
 *  its layer @p l, then how @p r ran. */
std::vector<FieldValue>
rowFields(const ScheduleResult &r, bool selected, const LayerChoice &l,
          bool fleet)
{
    std::vector<FieldValue> f = {
        textField("model", r.model), textField("schedule", r.schedule),
        numberField("selected", selected), numberField("aw", r.aw),
        numberField("ah", r.ah), numberField("seed", r.seed)};
    const std::vector<FieldValue> layer = layerFields(l, fleet);
    f.insert(f.end(), layer.begin(), layer.end());
    f.insert(f.end(), {textField("engine_mode", toString(r.engine)),
                       numberField("sim_wall_us", r.sim_wall_us),
                       numberField("arena_peak_bytes", r.arena_peak_bytes),
                       textField("status", status(r))});
    return f;
}

/** One JSON alternatives[] entry. */
std::vector<FieldValue>
alternativeFields(const ScheduleResult &r)
{
    return {textField("schedule", r.schedule),
            numberField("est_cycles", r.est_total),
            numberField("cycles", r.cycles), textField("status", status(r))};
}

/** The JSON summary: the primary schedule against the best fixed one. */
std::vector<FieldValue>
summaryFields(const ScheduleComparison &c, bool fleet)
{
    const ScheduleResult &p = c.primary();
    const int best = c.bestFixed();
    const ScheduleResult *b = best >= 0 ? &c.schedules[size_t(best)] : nullptr;
    std::vector<FieldValue> f = {
        numberField("est_cycles", p.est_total),
        numberField("cycles", p.cycles), numberField("macs", p.macs),
        numberField("utilization", fmtDouble(p.utilization(), 4)),
        numberField("rd_stalls", p.read_stalls),
        numberField("wr_stalls", p.write_stalls),
        numberField("checked", p.checked),
        numberField("mismatches", p.mismatches),
        textField("engine_mode", toString(p.engine)),
        numberField("sim_wall_us", p.sim_wall_us),
        numberField("arena_peak_bytes", p.arena_peak_bytes),
        textField("status", status(p)),
        textField("best_fixed", b ? b->schedule : ""),
        numberField("best_fixed_cycles", b ? b->cycles : 0),
        numberField("speedup_vs_best_fixed",
                    fmtDouble(c.speedupVsBestFixed(), 4))};
    if (fleet) {
        f.insert(f.end(), {numberField("search_nodes", p.search_nodes),
                           numberField("handoffs", p.handoffs),
                           numberField("handoff_cycles", p.handoff_cycles)});
    }
    f.push_back(numberField("plan_cache", c.cache.toJson()));
    return f;
}

} // namespace

std::string
ScheduleReport::toCsv() const
{
    const bool fleet = !comparison.primary().fleet.empty();
    Table t(csvNames(rowFields({}, false, {}, fleet)));
    for (size_t s = 0; s < comparison.schedules.size(); ++s) {
        const ScheduleResult &r = comparison.schedules[s];
        for (const LayerChoice &l : r.layers) {
            t.addRow(csvCells(rowFields(r, s == 0, l, fleet)));
        }
    }
    return t.toCsv();
}

std::string
ScheduleReport::toJson() const
{
    const ScheduleResult &p = comparison.primary();
    const std::vector<ScheduleResult> &all = comparison.schedules;
    const bool fleet = !p.fleet.empty();
    const auto layer = [fleet](const LayerChoice &l) {
        return layerFields(l, fleet);
    };
    std::vector<FieldValue> doc = {
        textField("model", p.model), textField("schedule", p.schedule),
        numberField("aw", p.aw), numberField("ah", p.ah),
        numberField("seed", p.seed)};
    if (fleet) doc.push_back(textField("fleet", p.fleet));
    doc.insert(
        doc.end(),
        {numberField("layers",
                     jsonArray(p.layers.begin(), p.layers.end(), layer)),
         numberField("alternatives",
                     jsonArray(all.begin() + 1, all.end(), alternativeFields)),
         numberField("summary",
                     jsonObject(summaryFields(comparison, fleet)))});
    return jsonObject(doc);
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
    for (const LayerChoice &l : p.layers) {
        const double util =
            l.pe_cycles > 0 ? double(l.macs) / double(l.pe_cycles) : 0.0;
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
