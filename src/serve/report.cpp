#include "serve/report.hpp"

#include "common/log.hpp"
#include "common/table.hpp"

namespace feather {
namespace serve {

namespace {

std::vector<FieldValue>
jobFields(const JobResult &r)
{
    return {textField("job", r.name), textField("scenario", r.scenario),
            textField("dataflow", r.dataflow), textField("layout", r.layout),
            numberField("aw", r.aw), numberField("ah", r.ah),
            numberField("seed", r.seed), textField("status", r.status()),
            numberField("layers", r.layers), numberField("cycles", r.cycles),
            numberField("macs", r.macs),
            numberField("utilization", fmtDouble(r.utilization, 4)),
            numberField("rd_stalls", r.read_stalls),
            numberField("wr_stalls", r.write_stalls),
            numberField("checked", r.checked),
            numberField("mismatches", r.mismatches),
            textField("engine_mode", toString(r.engine)),
            numberField("sim_wall_us", r.sim_wall_us),
            numberField("arena_peak_bytes", r.arena_peak_bytes),
            textField("error", r.error)};
}

} // namespace

std::string
JobResult::status() const
{
    if (!ok) return "ERROR";
    if (engine == sim::EngineMode::Analytic) return "est";
    return bitExact() ? "ok" : "MISMATCH";
}

size_t
BatchReport::failures() const
{
    size_t n = 0;
    for (const JobResult &r : jobs) {
        // Analytic jobs carry estimates, not verified outputs: only an
        // ERROR counts against them.
        if (r.ok && r.engine == sim::EngineMode::Analytic) continue;
        if (!r.bitExact()) ++n;
    }
    return n;
}

int64_t
BatchReport::totalCycles() const
{
    int64_t total = 0;
    for (const JobResult &r : jobs) total += r.cycles;
    return total;
}

int64_t
BatchReport::totalMacs() const
{
    int64_t total = 0;
    for (const JobResult &r : jobs) total += r.macs;
    return total;
}

std::string
BatchReport::toCsv() const
{
    return csvTable(jobs, jobFields);
}

std::string
BatchReport::toJson() const
{
    const std::vector<FieldValue> summary = {
        numberField("jobs", jobs.size()), numberField("failures", failures()),
        numberField("bit_exact", allOk() ? "true" : "false"),
        numberField("total_cycles", totalCycles()),
        numberField("total_macs", totalMacs()),
        numberField("base_seed", base_seed),
        numberField("plan_cache", cache.toJson())};
    return jsonObject(
        {numberField("jobs", jsonArray(jobs.begin(), jobs.end(), jobFields)),
         numberField("summary", jsonObject(summary))});
}

std::string
BatchReport::summaryTable() const
{
    Table t({"job", "array", "status", "layers", "cycles", "util",
             "rd stalls", "wr stalls"});
    for (const JobResult &r : jobs) {
        t.addRow({r.name, strCat(r.aw, "x", r.ah), r.status(),
                  std::to_string(r.layers), std::to_string(r.cycles),
                  fmtPercent(r.utilization),
                  std::to_string(r.read_stalls),
                  std::to_string(r.write_stalls)});
    }
    std::string out = t.toString();
    out += strCat(jobs.size(), " job(s), ", failures(),
                  " failure(s); total cycles ", totalCycles(), "; ",
                  cache.toString(), "\n");
    return out;
}

} // namespace serve
} // namespace feather
