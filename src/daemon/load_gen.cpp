#include "daemon/load_gen.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace feather {
namespace daemon {

std::vector<Request>
generateLoad(const LoadGenConfig &cfg)
{
    // Separate derived streams: arrivals (stream 0) and shapes (stream 1).
    Rng arrivals = Rng::forStream(cfg.seed, 0);
    Rng shapes = Rng::forStream(cfg.seed, 1);

    // Uniform integer gaps in [1, 2*period-1]: mean = period = 1e6/qps
    // microseconds, computed without floating point so traces are
    // byte-identical across platforms.
    const uint64_t qps = std::max<uint64_t>(1, cfg.qps);
    const int64_t period = std::max<int64_t>(1, int64_t(1000000 / qps));

    constexpr uint64_t kClients = 4;
    constexpr uint64_t kModelEvery = 40;
    static const char *const kScenarios[] = {
        "gemm", "quickstart_conv", "depthwise", "conv1x1", "gemm_skewed"};
    constexpr size_t kNumScenarios =
        sizeof(kScenarios) / sizeof(kScenarios[0]);

    std::vector<Request> out;
    out.reserve(cfg.requests);
    int64_t t = 0;
    for (uint64_t i = 0; i < cfg.requests; ++i) {
        t += 1 + int64_t(arrivals.below(uint64_t(2 * period - 1)));

        Request req;
        req.id = strCat("r", i);
        req.arrival_us = t;
        req.client = strCat("c", shapes.below(kClients));
        req.priority = int(shapes.below(3));
        if (i > 0 && i % kModelEvery == 0) {
            req.model = "bert_mlp";
        } else {
            req.scenario = kScenarios[shapes.below(kNumScenarios)];
            // A quarter of the scenario stream runs the analytic tier —
            // cheap estimates interleaved with verified cycle runs, like
            // a planner probing alongside production traffic.
            if (shapes.below(4) == 0) {
                req.engine = sim::EngineMode::Analytic;
            }
            // Occasionally pin a dataflow instead of the per-layer
            // family, so the plan cache sees distinct keys per workload.
            const uint64_t df = shapes.below(4);
            if (df == 1) req.dataflow = "ws";
            if (df == 2) req.dataflow = "cp";
        }
        out.push_back(std::move(req));
    }
    return out;
}

std::string
toTraceText(const std::vector<Request> &requests)
{
    std::string out;
    for (const Request &req : requests) {
        out += req.toJsonLine();
        out += '\n';
    }
    return out;
}

} // namespace daemon
} // namespace feather
