#include "daemon/report.hpp"

#include "common/log.hpp"
#include "common/table.hpp"

namespace feather {
namespace daemon {

namespace {

std::vector<FieldValue>
clientFields(const ClientRow &c)
{
    return {textField("client", c.client), numberField("requests", c.requests),
            numberField("accepted", c.accepted),
            numberField("rejected", c.rejected),
            numberField("errors", c.errors),
            numberField("cache_hits", c.cache_hits),
            numberField("cache_misses", c.cache_misses),
            numberField("total_cycles", c.total_cycles),
            numberField("p50_vus", c.p50_vus),
            numberField("p95_vus", c.p95_vus),
            numberField("p99_vus", c.p99_vus),
            numberField("mean_queue_vus", fmtDouble(c.mean_queue_vus, 2)),
            numberField("mean_service_vus", fmtDouble(c.mean_service_vus, 2)),
            numberField("queue_wall_us", c.queue_wall_us),
            numberField("service_wall_us", c.service_wall_us)};
}

std::vector<FieldValue>
deviceFields(const DeviceRow &d)
{
    return {textField("device", d.device),
            numberField("capability", d.capability),
            numberField("requests", d.requests),
            numberField("busy_vus", d.busy_vus),
            numberField("queue_p95_vus", d.queue_p95_vus),
            numberField("cache_hits", d.cache_hits),
            numberField("cache_misses", d.cache_misses),
            numberField("handoffs", d.handoffs),
            numberField("handoff_vus", d.handoff_vus)};
}

} // namespace

std::string
DaemonReport::toCsv() const
{
    std::string out = csvTable(clients, clientFields);
    if (!devices.empty()) out += "\n" + csvTable(devices, deviceFields);
    return out;
}

std::string
DaemonReport::toJson() const
{
    // fleet and place exist only with an explicit fleet, so the classic
    // schema stays byte-identical.
    const bool on_fleet = !devices.empty();
    std::vector<FieldValue> summary = {
        numberField("requests", requests), numberField("accepted", accepted),
        numberField("rejected", rejected), numberField("errors", errors),
        numberField("p50_vus", p50_vus), numberField("p95_vus", p95_vus),
        numberField("p99_vus", p99_vus), numberField("max_vus", max_vus),
        numberField("makespan_vus", makespan_vus),
        numberField("virtual_rps", fmtDouble(virtual_rps, 2)),
        numberField("total_cycles", total_cycles),
        numberField("total_macs", total_macs),
        numberField("plan_cache", cache.toJson()),
        numberField("base_seed", base_seed), numberField("vworkers", vworkers),
        numberField("clock_mhz", clock_mhz), textField("engine", engine)};
    if (on_fleet) {
        summary.push_back(textField("fleet", fleet));
        summary.push_back(textField("place", place));
    }
    summary.push_back(numberField("run_wall_us", run_wall_us));
    std::vector<FieldValue> doc = {numberField(
        "clients", jsonArray(clients.begin(), clients.end(), clientFields))};
    if (on_fleet) {
        doc.push_back(numberField(
            "devices",
            jsonArray(devices.begin(), devices.end(), deviceFields)));
    }
    doc.push_back(numberField("summary", jsonObject(summary)));
    return jsonObject(doc);
}

std::string
DaemonReport::summaryTable() const
{
    Table t({"client", "requests", "accepted", "rejected", "errors",
             "p50_vus", "p95_vus", "p99_vus", "cache h/m"});
    for (const ClientRow &c : clients) {
        t.addRow({c.client, std::to_string(c.requests),
                  std::to_string(c.accepted), std::to_string(c.rejected),
                  std::to_string(c.errors), std::to_string(c.p50_vus),
                  std::to_string(c.p95_vus), std::to_string(c.p99_vus),
                  strCat(c.cache_hits, "/", c.cache_misses)});
    }
    std::string out = t.toString();
    if (!devices.empty()) {
        Table dt({"device", "capability", "requests", "busy_vus",
                  "queue_p95", "cache h/m", "handoffs"});
        for (const DeviceRow &d : devices) {
            dt.addRow({d.device, std::to_string(d.capability),
                       std::to_string(d.requests),
                       std::to_string(d.busy_vus),
                       std::to_string(d.queue_p95_vus),
                       strCat(d.cache_hits, "/", d.cache_misses),
                       strCat(d.handoffs, " (", d.handoff_vus, " vus)")});
        }
        out += strCat("fleet [", fleet, "] placed by ", place, ":\n",
                      dt.toString());
    }
    out += strCat(requests, " request(s): ", accepted, " accepted, ",
                  rejected, " rejected, ", errors, " error(s); latency p50/"
                  "p95/p99 ", p50_vus, "/", p95_vus, "/", p99_vus,
                  " vus; makespan ", makespan_vus, " vus (",
                  fmtDouble(virtual_rps, 2), " rps); ", cache.toString(),
                  "\n");
    return out;
}

} // namespace daemon
} // namespace feather
