#include "serve/job.hpp"

#include <algorithm>
#include <sstream>

#include "common/log.hpp"
#include "common/parse.hpp"

namespace feather {
namespace serve {

const sim::ModelGraph *
resolveScenario(const JobSpec &spec, std::string *error)
{
    if (spec.inline_scenario) return &*spec.inline_scenario;
    const sim::ModelGraph *s = sim::findScenario(spec.scenario);
    if (!s && error) {
        // List the registry so a typo'd sweep/batch line is actionable
        // instead of a bare "unknown scenario".
        *error = "unknown scenario '" + spec.scenario + "'; known:";
        for (const std::string &name : sim::scenarioNames()) {
            *error += " " + name;
        }
    }
    return s;
}

std::string
displayName(const JobSpec &spec)
{
    if (!spec.name.empty()) return spec.name;
    const std::string scenario =
        spec.inline_scenario ? spec.inline_scenario->name : spec.scenario;
    std::string name = strCat(
        scenario, "/",
        spec.opts.dataflow.empty() ? std::string("auto") : spec.opts.dataflow);
    const sim::ModelGraph *s = resolveScenario(spec, nullptr);
    const int aw =
        spec.opts.aw > 0 ? spec.opts.aw : (s ? s->default_aw : 0);
    const int ah =
        spec.opts.ah > 0 ? spec.opts.ah : (s ? s->default_ah : 0);
    name += strCat("@", aw, "x", ah);
    if (!spec.opts.layout.empty() && spec.opts.layout != "concordant") {
        name += "+" + spec.opts.layout;
    }
    if (!spec.opts.out_layout.empty() &&
        spec.opts.out_layout != "concordant") {
        name += ">" + spec.opts.out_layout;
    }
    return name;
}

std::optional<std::vector<JobSpec>>
expandSweep(const SweepSpec &sweep, PlanCache &cache,
            std::vector<std::string> *skipped, std::string *error)
{
    JobSpec probe;
    probe.scenario = sweep.scenario;
    probe.inline_scenario = sweep.inline_scenario;
    const sim::ModelGraph *scenario = resolveScenario(probe, error);
    if (!scenario) return std::nullopt;

    std::vector<std::string> dataflows = sweep.dataflows;
    if (dataflows.empty()) dataflows = {"", "ws", "cp", "wp"};
    // Validate dataflow names up front: a typo must error out even when
    // every grid point is skipped for its array shape. "" keeps each
    // layer's pin (no parsed override).
    std::vector<std::optional<sim::DataflowKind>> overrides;
    for (const std::string &dataflow : dataflows) {
        std::optional<sim::DataflowKind> kind;
        if (!dataflow.empty()) {
            kind = sim::parseDataflow(dataflow);
            if (!kind) {
                if (error) *error = "unknown dataflow '" + dataflow + "'";
                return std::nullopt;
            }
        }
        overrides.push_back(kind);
    }

    std::vector<std::pair<int, int>> arrays = sweep.arrays;
    if (arrays.empty()) {
        arrays = {{scenario->default_aw, scenario->default_ah},
                  {4, 4},
                  {8, 8},
                  {16, 16}};
    }
    // Drop duplicate grid points (e.g. the scenario default repeating a
    // standard size) while preserving order.
    std::vector<std::pair<int, int>> unique_arrays;
    for (const auto &a : arrays) {
        if (std::find(unique_arrays.begin(), unique_arrays.end(), a) ==
            unique_arrays.end()) {
            unique_arrays.push_back(a);
        }
    }

    std::vector<std::string> layouts = sweep.layouts;
    if (layouts.empty()) layouts = {"concordant"};

    // Pre-plan every (dataflow, array) point through the shared cache;
    // points that cannot map are filtered here so every emitted job can
    // run (and the run itself then hits the warmed cache).
    std::vector<JobSpec> jobs;
    for (const auto &array : unique_arrays) {
        // Grid points with an array shape nothing can run on are skipped
        // like unmappable ones, not run into the runScenario error path
        // job by job.
        if (std::string why = sim::arrayShapeError(array.first, array.second);
            !why.empty()) {
            if (skipped) {
                skipped->push_back(strCat(scenario->name, "@", array.first,
                                          "x", array.second, ": ", why));
            }
            continue;
        }
        for (size_t d = 0; d < dataflows.size(); ++d) {
            const std::string &dataflow = dataflows[d];
            std::string why;
            bool fits = true;
            for (const sim::ModelLayer &ml : scenario->layers) {
                // An unpinned layer without an override is its job's error.
                const std::optional<sim::DataflowKind> kind =
                    overrides[d] ? overrides[d] : ml.dataflow;
                if (kind && !cache.getOrPlan(sweep.engine, *kind, ml.spec,
                                             array.first, array.second,
                                             &why)) {
                    fits = false;
                    break;
                }
            }
            if (!fits) {
                if (skipped) {
                    skipped->push_back(strCat(
                        scenario->name, "/",
                        dataflow.empty() ? std::string("auto") : dataflow,
                        "@", array.first, "x", array.second, ": ", why));
                }
                continue;
            }
            for (const std::string &layout : layouts) {
                JobSpec job;
                job.scenario = sweep.scenario;
                job.inline_scenario = sweep.inline_scenario;
                job.opts.dataflow = dataflow;
                job.opts.layout = layout;
                job.opts.aw = array.first;
                job.opts.ah = array.second;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

bool
parseBatchFile(const std::string &text, std::vector<JobSpec> *jobs,
               std::string *error)
{
    std::istringstream lines(text);
    std::string line;
    int line_no = 0;
    const auto fail = [&](const std::string &why) {
        if (error) *error = strCat("batch file line ", line_no, ": ", why);
        return false;
    };
    while (std::getline(lines, line)) {
        ++line_no;
        const size_t hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        std::istringstream tokens(line);
        std::string token;
        JobSpec job;
        bool first = true;
        while (tokens >> token) {
            if (first) {
                job.scenario = token;
                first = false;
                continue;
            }
            const size_t eq = token.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 >= token.size()) {
                return fail("expected key=value, got '" + token + "'");
            }
            const std::string key = token.substr(0, eq);
            const std::string value = token.substr(eq + 1);
            uint64_t n = 0;
            if (key == "dataflow") {
                job.opts.dataflow = value;
            } else if (key == "layout") {
                job.opts.layout = value;
            } else if (key == "out_layout") {
                job.opts.out_layout = value;
            } else if (key == "name") {
                job.name = value;
            } else if (key == "aw" || key == "ah") {
                if (!parseUint(value, &n) || n == 0 || n > 65536) {
                    return fail(key + " needs a positive integer <= 65536");
                }
                (key == "aw" ? job.opts.aw : job.opts.ah) = int(n);
            } else if (key == "seed") {
                if (!parseUint(value, &n)) {
                    return fail("seed needs a non-negative integer");
                }
                job.explicit_seed = n;
            } else if (key == "engine") {
                const std::optional<sim::EngineMode> mode =
                    sim::parseEngineMode(value);
                if (!mode) {
                    std::string valid;
                    for (const std::string &m : sim::engineModeNames()) {
                        valid += " " + m;
                    }
                    return fail("unknown engine '" + value + "'; known:" +
                                valid);
                }
                job.engine = *mode;
            } else {
                return fail("unknown key '" + key + "'");
            }
        }
        if (first) continue; // blank / comment-only line
        jobs->push_back(std::move(job));
    }
    if (jobs->empty()) {
        if (error) *error = "batch file defines no jobs";
        return false;
    }
    return true;
}

} // namespace serve
} // namespace feather
