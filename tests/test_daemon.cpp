/**
 * @file
 * Tests for the serving daemon: request wire-format parsing, the
 * virtual-time admission/service scheduler (DES), end-to-end daemon runs
 * (continuous batching, per-client accounting, the shared warm plan
 * cache), the deterministic load generator, feather_serve CLI
 * validation, and the daemon report schema (golden lock).
 *
 * The central contract under test mirrors serve's: for a pinned-arrival
 * request stream, every response and every non-`_wall_us` report field
 * is bit-identical at any --jobs setting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/report_norm.hpp"
#include "daemon/daemon.hpp"
#include "daemon/load_gen.hpp"
#include "daemon/report.hpp"
#include "daemon/request.hpp"
#include "daemon/serve_cli.hpp"
#include "daemon/vclock.hpp"
#include "golden_util.hpp"

namespace feather {
namespace daemon {
namespace {

// ---------------------------------------------------------------------------
// Request wire format
// ---------------------------------------------------------------------------

TEST(Request, ParsesAllFields)
{
    Request req;
    std::string error;
    ASSERT_TRUE(Request::parse(
        "{\"id\":\"r7\",\"client\":\"c1\",\"priority\":0,"
        "\"arrival_us\":1500,\"scenario\":\"gemm\",\"aw\":8,\"ah\":4,"
        "\"dataflow\":\"cp\",\"layout\":\"HWC_C8\",\"seed\":42,"
        "\"engine\":\"analytic\"}",
        &req, &error))
        << error;
    EXPECT_EQ(req.id, "r7");
    EXPECT_EQ(req.client, "c1");
    EXPECT_EQ(req.priority, 0);
    EXPECT_EQ(req.arrival_us, 1500);
    EXPECT_EQ(req.scenario, "gemm");
    EXPECT_FALSE(req.isModel());
    EXPECT_EQ(req.aw, 8);
    EXPECT_EQ(req.ah, 4);
    EXPECT_EQ(req.dataflow, "cp");
    EXPECT_EQ(req.layout, "HWC_C8");
    ASSERT_TRUE(req.seed.has_value());
    EXPECT_EQ(*req.seed, 42u);
    ASSERT_TRUE(req.engine.has_value());
    EXPECT_EQ(*req.engine, sim::EngineMode::Analytic);
}

TEST(Request, DefaultsAreMinimal)
{
    Request req;
    std::string error;
    ASSERT_TRUE(Request::parse("{\"scenario\":\"gemm\"}", &req, &error))
        << error;
    EXPECT_EQ(req.client, "anon");
    EXPECT_EQ(req.priority, 1);
    EXPECT_EQ(req.arrival_us, -1) << "unpinned arrival";
    EXPECT_FALSE(req.seed.has_value());
    EXPECT_FALSE(req.engine.has_value());
}

TEST(Request, ModelRequestsParse)
{
    Request req;
    std::string error;
    ASSERT_TRUE(Request::parse(
        "{\"model\":\"bert_mlp\",\"schedule\":\"greedy\"}", &req, &error))
        << error;
    EXPECT_TRUE(req.isModel());
    EXPECT_EQ(req.model, "bert_mlp");
    EXPECT_EQ(req.schedule, "greedy");

    // Options of the other request kind are accepted at their defaults.
    EXPECT_TRUE(Request::parse(
        "{\"model\":\"bert_mlp\",\"layout\":\"concordant\"}", &req,
        &error))
        << error;
    EXPECT_TRUE(Request::parse(
        "{\"scenario\":\"gemm\",\"schedule\":\"per-layer\"}", &req,
        &error))
        << error;
}

TEST(Request, StrictRejections)
{
    Request req;
    std::string error;
    struct Case
    {
        const char *line;
        const char *expect; ///< substring the error must contain
    };
    const Case cases[] = {
        {"{\"scenario\":\"gemm\",\"frobnicate\":1}", "unknown key"},
        {"{\"scenario\":\"gemm\",\"priority\":3}", "priority"},
        {"{\"scenario\":\"gemm\",\"priority\":-1}", "priority"},
        {"{\"scenario\":\"gemm\",\"arrival_us\":-5}", "arrival_us"},
        {"{\"scenario\":\"gemm\",\"aw\":0}", "aw"},
        {"{\"scenario\":\"gemm\",\"ah\":8192}", "ah"},
        {"{\"scenario\":\"gemm\",\"engine\":\"warp\"}", "engine"},
        {"{\"scenario\":\"gemm\",\"model\":\"bert_mlp\"}", "exclusive"},
        {"{\"id\":\"x\"}", "required"},
        {"{\"model\":\"bert_mlp\",\"dataflow\":\"cp\"}",
         "scenario requests only"},
        {"{\"model\":\"bert_mlp\",\"layout\":\"zz_bogus\"}",
         "scenario requests only"},
        {"{\"model\":\"bert_mlp\",\"out_layout\":\"nope\"}",
         "scenario requests only"},
        {"{\"scenario\":\"gemm\",\"schedule\":\"bogus\"}",
         "model requests only"},
        {"{\"scenario\":\"gemm\",\"schedule\":\"greedy\"}",
         "model requests only"},
        {"{\"scenario\":\"gemm\",\"client\":\"\"}", "client"},
        {"not json at all", ""},
        {"{\"scenario\":\"gemm\"", ""},
    };
    for (const Case &c : cases) {
        error.clear();
        EXPECT_FALSE(Request::parse(c.line, &req, &error)) << c.line;
        EXPECT_FALSE(error.empty()) << c.line;
        EXPECT_NE(error.find(c.expect), std::string::npos)
            << c.line << " -> " << error;
    }
}

TEST(Request, KeepsClientParsedBeforeTheFailure)
{
    // Error accounting attributes bad lines to their client when that
    // field parsed before the failure (keys process in input order).
    Request req;
    std::string error;
    EXPECT_FALSE(Request::parse(
        "{\"client\":\"c3\",\"scenario\":\"gemm\",\"bogus\":1}", &req,
        &error));
    EXPECT_EQ(req.client, "c3");
}

TEST(Request, JsonLineRoundTrips)
{
    const char *lines[] = {
        "{\"scenario\":\"gemm\"}",
        "{\"id\":\"a\",\"client\":\"c0\",\"priority\":0,\"arrival_us\":10,"
        "\"scenario\":\"depthwise\",\"aw\":8,\"ah\":8,\"dataflow\":\"ws\","
        "\"seed\":7,\"engine\":\"analytic\"}",
        "{\"client\":\"c1\",\"model\":\"bert_mlp\",\"schedule\":\"greedy\"}",
    };
    for (const char *line : lines) {
        Request req;
        std::string error;
        ASSERT_TRUE(Request::parse(line, &req, &error)) << error;
        const std::string emitted = req.toJsonLine();
        Request back;
        ASSERT_TRUE(Request::parse(emitted, &back, &error))
            << emitted << ": " << error;
        EXPECT_EQ(back.toJsonLine(), emitted) << line;
    }
}

// ---------------------------------------------------------------------------
// VirtualScheduler (DES)
// ---------------------------------------------------------------------------

struct Completion
{
    size_t index;
    int64_t start;
    int64_t finish;

    bool
    operator==(const Completion &o) const
    {
        return index == o.index && start == o.start && finish == o.finish;
    }
};

/** Run a DES over (arrival, priority, duration) triples; returns
 *  completions in event order, rejects reasons by arrival index. */
struct DesHarness
{
    std::vector<int64_t> durations;
    std::vector<Completion> completions;
    std::vector<std::string> rejected; ///< "" = accepted

    explicit DesHarness(VirtualConfig cfg)
        : vs(cfg, FleetConfig(),
             [this](size_t i, int, int) { return durations[i]; },
             [this](const StageEvent &e) {
                 completions.push_back({e.index, e.start_vus, e.finish_vus});
             })
    {
    }

    bool
    arrive(int64_t at, int priority, int64_t duration)
    {
        durations.push_back(duration);
        std::string reason;
        const bool ok =
            vs.arrive({durations.size() - 1, at, priority}, &reason);
        rejected.push_back(ok ? "" : reason);
        return ok;
    }

    VirtualScheduler vs;
};

TEST(VirtualScheduler, SingleServerFifo)
{
    DesHarness h((VirtualConfig()));
    EXPECT_TRUE(h.arrive(0, 1, 10));
    EXPECT_TRUE(h.arrive(1, 1, 5));
    EXPECT_TRUE(h.arrive(2, 1, 5));
    h.vs.drain();
    const std::vector<Completion> want = {
        {0, 0, 10}, {1, 10, 15}, {2, 15, 20}};
    EXPECT_EQ(h.completions, want);
    EXPECT_EQ(h.vs.lastFinish(), 20);
}

TEST(VirtualScheduler, IdleServerStartsAtArrival)
{
    DesHarness h((VirtualConfig()));
    EXPECT_TRUE(h.arrive(0, 1, 10));
    EXPECT_TRUE(h.arrive(100, 1, 5)) << "arrives after the first finished";
    h.vs.drain();
    const std::vector<Completion> want = {{0, 0, 10}, {1, 100, 105}};
    EXPECT_EQ(h.completions, want);
}

TEST(VirtualScheduler, MultipleVworkersServeConcurrently)
{
    VirtualConfig cfg;
    cfg.vworkers = 2;
    DesHarness h(cfg);
    EXPECT_TRUE(h.arrive(0, 1, 10));
    EXPECT_TRUE(h.arrive(0, 1, 10));
    EXPECT_TRUE(h.arrive(0, 1, 10)); // queues behind both
    h.vs.drain();
    ASSERT_EQ(h.completions.size(), 3u);
    EXPECT_EQ(h.completions[2].start, 10) << "starts when a server frees";
    EXPECT_EQ(h.completions[2].finish, 20);
}

TEST(VirtualScheduler, HigherPriorityJumpsTheQueue)
{
    DesHarness h((VirtualConfig()));
    EXPECT_TRUE(h.arrive(0, 1, 10)); // in service
    EXPECT_TRUE(h.arrive(1, 2, 5));  // waits, low priority
    EXPECT_TRUE(h.arrive(2, 0, 5));  // waits, high priority
    h.vs.drain();
    const std::vector<Completion> want = {
        {0, 0, 10}, {2, 10, 15}, {1, 15, 20}};
    EXPECT_EQ(h.completions, want)
        << "priority 0 must start before the earlier priority-2 waiter";
}

TEST(VirtualScheduler, QueueDepthRejectsWithReason)
{
    VirtualConfig cfg;
    cfg.max_queue = 1;
    DesHarness h(cfg);
    EXPECT_TRUE(h.arrive(0, 1, 100)); // in service, not queued
    EXPECT_TRUE(h.arrive(1, 1, 10));  // the one queue slot
    EXPECT_FALSE(h.arrive(2, 1, 10)); // queue full
    EXPECT_NE(h.rejected[2].find("queue full"), std::string::npos)
        << h.rejected[2];
    EXPECT_NE(h.rejected[2].find("max-queue 1"), std::string::npos);
    h.vs.drain();
    EXPECT_EQ(h.completions.size(), 2u) << "rejected request never runs";
}

TEST(VirtualScheduler, MaxQueueZeroStillServesIdleServers)
{
    // Bounds apply to *waiting* requests only: with a free server even
    // max_queue=0 admits.
    VirtualConfig cfg;
    cfg.max_queue = 0;
    DesHarness h(cfg);
    EXPECT_TRUE(h.arrive(0, 1, 10));
    EXPECT_FALSE(h.arrive(1, 1, 10)) << "server busy, no queue room";
    EXPECT_TRUE(h.arrive(20, 1, 10)) << "server idle again";
    h.vs.drain();
    EXPECT_EQ(h.completions.size(), 2u);
}

TEST(VirtualScheduler, PerPriorityQuotaRejects)
{
    VirtualConfig cfg;
    cfg.quota[2] = 1;
    DesHarness h(cfg);
    EXPECT_TRUE(h.arrive(0, 2, 100));
    EXPECT_TRUE(h.arrive(1, 2, 10));  // one priority-2 waiter: at quota
    EXPECT_FALSE(h.arrive(2, 2, 10)); // over quota
    EXPECT_NE(h.rejected[2].find("priority-2 quota"), std::string::npos)
        << h.rejected[2];
    EXPECT_TRUE(h.arrive(3, 0, 10)) << "other priorities are unaffected";
    h.vs.drain();
    EXPECT_EQ(h.completions.size(), 3u);
}

TEST(VirtualScheduler, QueueFreesAsCompletionsMaterialize)
{
    // Lazy drain: a later arrival materializes earlier completions, so
    // the queue slot frees and the new request is admitted.
    VirtualConfig cfg;
    cfg.max_queue = 1;
    DesHarness h(cfg);
    EXPECT_TRUE(h.arrive(0, 1, 5));
    EXPECT_TRUE(h.arrive(1, 1, 5));   // queued
    EXPECT_TRUE(h.arrive(6, 1, 5));   // t=6: first done, queue empty again
    h.vs.drain();
    EXPECT_EQ(h.completions.size(), 3u);
    const std::vector<Completion> want = {
        {0, 0, 5}, {1, 5, 10}, {2, 10, 15}};
    EXPECT_EQ(h.completions, want);
}

TEST(VirtualScheduler, ZeroDurationClampsToOne)
{
    DesHarness h((VirtualConfig()));
    EXPECT_TRUE(h.arrive(0, 1, 0));
    h.vs.drain();
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].finish, 1)
        << "virtual service takes at least 1us";
}

// ---------------------------------------------------------------------------
// Daemon end to end
// ---------------------------------------------------------------------------

/** Run @p requests through a fresh daemon, capturing responses. */
struct DaemonRun
{
    std::vector<std::string> responses;
    DaemonReport report;
    uint64_t failures = 0;
};

DaemonRun
runDaemon(const std::vector<Request> &requests, DaemonOptions opts)
{
    DaemonRun out;
    Daemon daemon(opts);
    for (const Request &req : requests) {
        daemon.enqueue(req, [&out](const std::string &line) {
            out.responses.push_back(line);
        });
    }
    daemon.closeIntake();
    out.report = daemon.run();
    out.failures = daemon.failures();
    return out;
}

std::vector<Request>
smallLoad(uint64_t requests = 24)
{
    LoadGenConfig cfg;
    cfg.qps = 500;
    cfg.requests = requests;
    cfg.seed = 2024;
    return generateLoad(cfg);
}

TEST(Daemon, AnswersEveryRequestOnce)
{
    const std::vector<Request> reqs = smallLoad();
    const DaemonRun run = runDaemon(reqs, DaemonOptions());
    EXPECT_EQ(run.responses.size(), reqs.size());
    EXPECT_EQ(run.report.requests, reqs.size());
    EXPECT_EQ(run.report.requests, run.report.accepted +
                                       run.report.rejected +
                                       run.report.errors);
    EXPECT_EQ(run.report.errors, 0u);
    EXPECT_EQ(run.failures, 0u);
    // Percentiles come from accepted requests: makespan covers them all.
    EXPECT_GT(run.report.makespan_vus, 0);
    EXPECT_GE(run.report.p95_vus, run.report.p50_vus);
    EXPECT_GE(run.report.p99_vus, run.report.p95_vus);
    EXPECT_GE(run.report.max_vus, run.report.p99_vus);
}

TEST(Daemon, ResponsesAndReportAreBitIdenticalAcrossJobs)
{
    // THE determinism contract: --jobs changes wall-clock execution only.
    const std::vector<Request> reqs = smallLoad();
    DaemonOptions one;
    one.num_threads = 1;
    one.virt.vworkers = 2;
    DaemonOptions eight = one;
    eight.num_threads = 8;
    const DaemonRun a = runDaemon(reqs, one);
    const DaemonRun b = runDaemon(reqs, eight);

    ASSERT_EQ(a.responses.size(), b.responses.size());
    for (size_t i = 0; i < a.responses.size(); ++i) {
        EXPECT_EQ(zeroWallJson(a.responses[i]), zeroWallJson(b.responses[i]))
            << "response " << i;
    }
    EXPECT_EQ(zeroWallCsv(a.report.toCsv()), zeroWallCsv(b.report.toCsv()));
    EXPECT_EQ(zeroWallJson(a.report.toJson()),
              zeroWallJson(b.report.toJson()));
    EXPECT_EQ(a.failures, b.failures);
}

TEST(Daemon, AdmissionControlShedsLoadDeterministically)
{
    // A tiny virtual system under a fast open-loop stream must reject
    // some requests — identically at any pool size.
    std::vector<Request> reqs;
    for (int i = 0; i < 30; ++i) {
        Request req;
        req.id = strCat("r", i);
        req.client = i % 2 ? "odd" : "even";
        req.scenario = "gemm";
        req.arrival_us = i; // far faster than service
        reqs.push_back(req);
    }
    DaemonOptions opts;
    opts.clock_mhz = 1; // 1 MHz: service takes ~cycles virtual us
    opts.virt.max_queue = 2;
    const DaemonRun a = runDaemon(reqs, opts);
    EXPECT_GT(a.report.rejected, 0u);
    EXPECT_GT(a.report.accepted, 0u);
    EXPECT_EQ(a.report.requests, 30u);
    EXPECT_EQ(a.failures, 0u) << "admission rejections are not failures";

    opts.num_threads = 6;
    const DaemonRun b = runDaemon(reqs, opts);
    EXPECT_EQ(a.report.rejected, b.report.rejected);
    EXPECT_EQ(zeroWallCsv(a.report.toCsv()), zeroWallCsv(b.report.toCsv()));

    // Rejected responses carry the reason.
    const auto rejected_line =
        std::find_if(a.responses.begin(), a.responses.end(),
                     [](const std::string &r) {
                         return r.find("\"rejected\"") != std::string::npos;
                     });
    ASSERT_NE(rejected_line, a.responses.end());
    EXPECT_NE(rejected_line->find("\"reason\""), std::string::npos);
}

TEST(Daemon, QuotaZeroStarvesOnlyThatPriority)
{
    std::vector<Request> reqs;
    for (int i = 0; i < 12; ++i) {
        Request req;
        req.client = "c";
        req.scenario = "gemm";
        req.priority = i % 2 ? 2 : 0;
        req.arrival_us = i;
        reqs.push_back(req);
    }
    DaemonOptions opts;
    opts.clock_mhz = 1;     // slow virtual clock so requests pile up
    opts.virt.quota[2] = 0; // priority 2 may never wait
    const DaemonRun run = runDaemon(reqs, opts);
    EXPECT_GT(run.report.rejected, 0u);
    for (const std::string &r : run.responses) {
        if (r.find("\"rejected\"") != std::string::npos) {
            EXPECT_NE(r.find("priority-2 quota"), std::string::npos) << r;
        }
    }
}

TEST(Daemon, BadLinesBecomeErrorResponsesWithAttribution)
{
    Daemon daemon;
    std::vector<std::string> responses;
    const ResponseSink sink = [&responses](const std::string &line) {
        responses.push_back(line);
    };
    daemon.enqueueLine("{\"client\":\"cx\",\"scenario\":\"gemm\","
                       "\"bogus\":1}",
                       sink);
    daemon.enqueueLine("this is not json", sink);
    daemon.enqueueLine("{\"scenario\":\"no_such_scenario\"}", sink);
    daemon.closeIntake();
    const DaemonReport report = daemon.run();

    ASSERT_EQ(responses.size(), 3u);
    for (const std::string &r : responses) {
        EXPECT_NE(r.find("\"ERROR\""), std::string::npos) << r;
    }
    EXPECT_NE(responses[0].find("\"client\":\"cx\""), std::string::npos)
        << "bad line attributed to its parsed client";
    EXPECT_NE(responses[2].find("no_such_scenario"), std::string::npos);
    EXPECT_EQ(report.errors, 3u);
    EXPECT_EQ(daemon.failures(), 3u);

    const auto cx = std::find_if(
        report.clients.begin(), report.clients.end(),
        [](const ClientRow &c) { return c.client == "cx"; });
    ASSERT_NE(cx, report.clients.end());
    EXPECT_EQ(cx->errors, 1u);
}

TEST(Daemon, NonMonotonicPinnedArrivalsAreErrors)
{
    std::vector<Request> reqs(2);
    reqs[0].scenario = "gemm";
    reqs[0].arrival_us = 100;
    reqs[1].scenario = "gemm";
    reqs[1].arrival_us = 50; // goes backwards
    const DaemonRun run = runDaemon(reqs, DaemonOptions());
    EXPECT_EQ(run.report.accepted, 1u);
    EXPECT_EQ(run.report.errors, 1u);
    // The error response is emitted at intake time, before the first
    // request's completion materializes at drain — search, don't index.
    const auto err = std::find_if(
        run.responses.begin(), run.responses.end(),
        [](const std::string &r) {
            return r.find("non-decreasing") != std::string::npos;
        });
    EXPECT_NE(err, run.responses.end());
}

TEST(Daemon, EnqueueAfterCloseIsRejected)
{
    Daemon daemon;
    daemon.closeIntake();
    std::vector<std::string> responses;
    const ResponseSink sink = [&responses](const std::string &line) {
        responses.push_back(line);
    };
    Request req;
    req.scenario = "gemm";
    daemon.enqueue(req, sink);
    daemon.enqueueLine("{\"scenario\":\"gemm\"}", sink);
    // An unparsable line after close is dropped without a reply.
    daemon.enqueueLine("this is not json", sink);
    const DaemonReport report = daemon.run();
    ASSERT_EQ(responses.size(), 2u);
    for (const std::string &r : responses) {
        EXPECT_NE(r.find("intake closed"), std::string::npos) << r;
    }
    EXPECT_EQ(report.requests, 0u) << "late arrivals are not accounted";
}

TEST(Daemon, WarmCacheAttributesHitsToClients)
{
    // Two clients asking for the same scenario: the first planning pass
    // misses, every later one hits — attributed to the client that asked.
    std::vector<Request> reqs;
    for (int i = 0; i < 4; ++i) {
        Request req;
        req.client = i == 0 ? "first" : "rest";
        req.scenario = "gemm";
        req.arrival_us = i * 1000;
        reqs.push_back(req);
    }
    const DaemonRun run = runDaemon(reqs, DaemonOptions());
    ASSERT_EQ(run.report.clients.size(), 2u);
    const ClientRow &first = run.report.clients[0];
    const ClientRow &rest = run.report.clients[1];
    ASSERT_EQ(first.client, "first");
    EXPECT_GT(first.cache_misses, 0u);
    EXPECT_EQ(first.cache_hits, 0u);
    EXPECT_EQ(rest.cache_misses, 0u) << "the cache is already warm";
    EXPECT_GT(rest.cache_hits, 0u);
    EXPECT_GT(run.report.cache.hits, 0u);
    EXPECT_GT(run.report.cache.entries, 0u);
}

TEST(Daemon, BadLayoutFailsAtExecutionNotAdmission)
{
    // A layout the scenario cannot satisfy fails at execution (layouts
    // are not part of planning) — an ERROR, counted as a failure.
    Request req;
    req.scenario = "gemm";
    req.layout = "not_a_layout";
    const DaemonRun run = runDaemon({req}, DaemonOptions());
    EXPECT_EQ(run.report.errors, 1u);
    EXPECT_EQ(run.failures, 1u);
    EXPECT_NE(run.responses[0].find("\"ERROR\""), std::string::npos)
        << run.responses[0];
}

TEST(Daemon, UnusablePinnedWidthIsRefusedAtAdmission)
{
    // BIRRD needs a power-of-two width >= 2. A pinned aw of 3 gets the
    // error execution would give, before it plans anything: the run's
    // plan cache is what the plain gemm alone leaves.
    Request plain;
    plain.scenario = "gemm";
    plain.arrival_us = 1000;
    const DaemonRun alone = runDaemon({plain}, DaemonOptions());
    Request scenario = plain;
    scenario.aw = 3;
    scenario.arrival_us = 0;
    Request model = scenario;
    model.scenario.clear();
    model.model = "bert_mlp";
    for (const Request &bad : {scenario, model}) {
        const std::string kind = bad.isModel() ? "model" : "scenario";
        const DaemonRun run = runDaemon({bad, plain}, DaemonOptions());
        ASSERT_EQ(run.responses.size(), 2u);
        EXPECT_NE(run.responses[0].find(
                      "\"ERROR\",\"reason\":\"array width (--aw) must be "
                      "a power of two >= 2, got 3\""),
                  std::string::npos)
            << kind << ": " << run.responses[0];
        EXPECT_EQ(run.report.errors, 1u) << kind;
        EXPECT_EQ(run.report.accepted, 1u) << kind;
        EXPECT_EQ(run.report.cache.entries, alone.report.cache.entries)
            << kind;
        EXPECT_EQ(run.report.cache.misses, alone.report.cache.misses)
            << kind;
        EXPECT_EQ(run.report.clients[0].cache_misses,
                  alone.report.clients[0].cache_misses)
            << kind;
    }
}

TEST(Daemon, ModelRequestsScheduleWholeGraphs)
{
    Request req;
    req.client = "m";
    req.model = "bert_mlp";
    const DaemonRun run = runDaemon({req}, DaemonOptions());
    ASSERT_EQ(run.responses.size(), 1u);
    EXPECT_NE(run.responses[0].find("\"ok\""), std::string::npos)
        << run.responses[0];
    EXPECT_EQ(run.report.accepted, 1u);
    EXPECT_GT(run.report.total_cycles, 0);
    EXPECT_EQ(run.failures, 0u);
}

// BIRRD's routing masks cover 64 columns. A request for a wider array on
// the --stdin frontend gets one ERROR line, and the daemon goes on to
// serve the next request; it must not reach the topology's panic.
TEST(ServeCli, StdinRefusesWiderThanBirrdAndServesTheNext)
{
    std::istringstream in(
        "{\"id\":\"wide\",\"scenario\":\"conv3x3\",\"aw\":128,"
        "\"ah\":8}\n"
        "{\"id\":\"next\",\"scenario\":\"conv3x3\",\"aw\":8,\"ah\":8}\n");
    std::streambuf *const cin_buf = std::cin.rdbuf(in.rdbuf());
    const char *argv[] = {"feather_serve", "--stdin"};
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const int rc = serveCliMain(2, const_cast<char **>(argv));
    const std::string out = ::testing::internal::GetCapturedStdout();
    ::testing::internal::GetCapturedStderr();
    std::cin.rdbuf(cin_buf);

    EXPECT_EQ(rc, 1) << "one request failed";
    std::vector<std::string> lines;
    std::istringstream stream(out);
    for (std::string line; std::getline(stream, line);) {
        lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 2u) << out;
    EXPECT_EQ(lines[0], "{\"id\":\"wide\",\"client\":\"anon\","
                        "\"status\":\"ERROR\",\"reason\":\"array width "
                        "(--aw) must be in 2..64, got 128\"}");
    EXPECT_EQ(lines[1].rfind("{\"id\":\"next\",\"client\":\"anon\","
                             "\"status\":\"ok\",",
                             0),
              0u)
        << lines[1];
    EXPECT_NE(lines[1].find("\"mismatches\":0"), std::string::npos)
        << lines[1];
}

TEST(ServeCli, StdinRefusesLayoutsTheArrayCannotHoldAndServesTheNext)
{
    std::istringstream in(
        "{\"id\":\"deep\",\"scenario\":\"conv3x3\","
        "\"layout\":\"CHW_W1000000\"}\n"
        "{\"id\":\"next\",\"scenario\":\"conv3x3\"}\n");
    std::streambuf *const cin_buf = std::cin.rdbuf(in.rdbuf());
    const char *argv[] = {"feather_serve", "--stdin", "--jobs", "1"};
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const int rc = serveCliMain(4, const_cast<char **>(argv));
    const std::string out = ::testing::internal::GetCapturedStdout();
    ::testing::internal::GetCapturedStderr();
    std::cin.rdbuf(cin_buf);

    EXPECT_EQ(rc, 1) << "one request failed";
    std::vector<std::string> lines;
    std::istringstream stream(out);
    for (std::string line; std::getline(stream, line);) {
        lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 2u) << out;
    EXPECT_EQ(lines[0], "{\"id\":\"deep\",\"client\":\"anon\","
                        "\"status\":\"ERROR\",\"reason\":\"conv3x3's "
                        "[N,C,H,W] iActs under layout 'CHW_W1000000' need "
                        "28000000 words per StaB bank; the StaB holds "
                        "262144\"}");
    EXPECT_EQ(lines[1].rfind("{\"id\":\"next\",\"client\":\"anon\","
                             "\"status\":\"ok\",",
                             0),
              0u)
        << lines[1];
}

// A request line over the 64 KiB cap on the --stdin frontend gets one
// ERROR line without being buffered whole, and the daemon goes on to
// serve the next request.
TEST(ServeCli, StdinRefusesAnOverlongLineAndServesTheNext)
{
    std::istringstream in(
        "{\"id\":\"" + std::string(100 * 1024, 'x') + "\"}\n" +
        "{\"id\":\"next\",\"scenario\":\"conv3x3\",\"aw\":8,\"ah\":8}\n");
    std::streambuf *const cin_buf = std::cin.rdbuf(in.rdbuf());
    const char *argv[] = {"feather_serve", "--stdin"};
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const int rc = serveCliMain(2, const_cast<char **>(argv));
    const std::string out = ::testing::internal::GetCapturedStdout();
    ::testing::internal::GetCapturedStderr();
    std::cin.rdbuf(cin_buf);

    EXPECT_EQ(rc, 1) << "one request failed";
    std::vector<std::string> lines;
    std::istringstream stream(out);
    for (std::string line; std::getline(stream, line);) {
        lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 2u) << out;
    EXPECT_EQ(lines[0], "{\"id\":\"r0\",\"client\":\"anon\","
                        "\"status\":\"ERROR\",\"reason\":\"bad request "
                        "line: longer than 65536 bytes\"}");
    EXPECT_EQ(lines[1].rfind("{\"id\":\"next\",\"client\":\"anon\","
                             "\"status\":\"ok\",",
                             0),
              0u)
        << lines[1];
}

/** Every callback of a LineSplitter fed @p chunks, then finished:
 *  lines as they are, a too-long line as "<too long>". */
std::vector<std::string>
splitLines(const std::vector<std::string> &chunks)
{
    std::vector<std::string> got;
    LineSplitter split([&got](const std::string &line, bool too_long) {
        got.push_back(too_long ? "<too long>" : line);
        return true;
    });
    for (const std::string &c : chunks) split.feed(c.data(), c.size());
    split.finish();
    return got;
}

TEST(LineSplitter, SplitsCrlfAndKeepsAPartialLastLine)
{
    using Lines = std::vector<std::string>;
    EXPECT_EQ(splitLines({"a\r\nb\n\n\r\nc"}), (Lines{"a", "b", "c"}));
    // A line across chunks, and a '\r' at a chunk's end.
    EXPECT_EQ(splitLines({"ab", "c\r", "\nd", "e"}), (Lines{"abc", "de"}));
    // Only one trailing '\r' is stripped.
    EXPECT_EQ(splitLines({"x\r\r\n"}), (Lines{"x\r"}));
}

TEST(LineSplitter, CapsTheLineAndReportsItOnce)
{
    using Lines = std::vector<std::string>;
    const std::string at_cap(kMaxRequestLineBytes, 'a');
    const std::string over(kMaxRequestLineBytes + 1, 'b');
    // At the cap, with or without a '\r', the line is kept.
    EXPECT_EQ(splitLines({at_cap + "\n" + at_cap + "\r\nz\n"}),
              (Lines{at_cap, at_cap, "z"}));
    // One byte over: reported once, however it arrives, and the next
    // line is read whole.
    EXPECT_EQ(splitLines({over + "\nz\n"}), (Lines{"<too long>", "z"}));
    std::vector<std::string> bytes;
    for (char c : over + over + "\nz") bytes.emplace_back(1, c);
    EXPECT_EQ(splitLines(bytes), (Lines{"<too long>", "z"}));
    // An over-long partial last line is reported once too.
    EXPECT_EQ(splitLines({"z\n" + over}), (Lines{"z", "<too long>"}));
    EXPECT_EQ(splitLines({"z\n" + over + "x"}), (Lines{"z", "<too long>"}));
}

TEST(LineSplitter, CallbackStopsTheStream)
{
    // The --stdin frontend stops at a bare `shutdown` line: nothing after
    // it, in this chunk or a later one, reaches the callback.
    std::vector<std::string> got;
    LineSplitter split([&got](const std::string &line, bool) {
        if (line == "shutdown") return false;
        got.push_back(line);
        return true;
    });
    const std::string chunk = "a\nshutdown\r\nb\n";
    EXPECT_FALSE(split.feed(chunk.data(), chunk.size()));
    EXPECT_FALSE(split.feed("c\n", 2));
    EXPECT_FALSE(split.finish());
    EXPECT_EQ(got, std::vector<std::string>{"a"});

    std::istringstream in("a\nb\nshutdown\nc\n");
    got.clear();
    LineSplitter stream_split([&got](const std::string &line, bool) {
        if (line == "shutdown") return false;
        got.push_back(line);
        return true;
    });
    EXPECT_FALSE(stream_split.feedStream(in));
    EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
}

// The tallest array a request line may ask for (ah <= 4096) at the
// widest BIRRD (aw 64) runs and verifies; it must not abort or exhaust
// memory.
TEST(ServeCli, StdinServesTheTallestArray)
{
    std::istringstream in(
        "{\"id\":\"tall\",\"scenario\":\"gemm\",\"aw\":64,"
        "\"ah\":4096}\n");
    std::streambuf *const cin_buf = std::cin.rdbuf(in.rdbuf());
    const char *argv[] = {"feather_serve", "--stdin"};
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const int rc = serveCliMain(2, const_cast<char **>(argv));
    const std::string out = ::testing::internal::GetCapturedStdout();
    ::testing::internal::GetCapturedStderr();
    std::cin.rdbuf(cin_buf);

    EXPECT_EQ(rc, 0) << out;
    EXPECT_EQ(out.rfind("{\"id\":\"tall\",\"client\":\"anon\","
                        "\"status\":\"ok\",",
                        0),
              0u)
        << out;
    EXPECT_NE(out.find("\"mismatches\":0"), std::string::npos) << out;
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1) << out;
}

TEST(Daemon, AnalyticScenarioRunsReportEstimates)
{
    Request req;
    req.scenario = "gemm";
    req.engine = sim::EngineMode::Analytic;
    const DaemonRun run = runDaemon({req}, DaemonOptions());
    ASSERT_EQ(run.responses.size(), 1u);
    EXPECT_NE(run.responses[0].find("\"est\""), std::string::npos)
        << run.responses[0];
    EXPECT_NE(run.responses[0].find("\"checked\":0"), std::string::npos)
        << "analytic runs verify nothing";
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

TEST(LoadGen, StreamIsDeterministicAndPinned)
{
    LoadGenConfig cfg;
    cfg.qps = 300;
    cfg.requests = 50;
    cfg.seed = 7;
    const std::vector<Request> a = generateLoad(cfg);
    const std::vector<Request> b = generateLoad(cfg);
    ASSERT_EQ(a.size(), 50u);
    EXPECT_EQ(toTraceText(a), toTraceText(b));

    int64_t last = -1;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, strCat("r", i));
        ASSERT_GE(a[i].arrival_us, 0) << "arrivals must be pinned";
        EXPECT_GE(a[i].arrival_us, last) << "non-decreasing arrivals";
        last = a[i].arrival_us;
    }

    cfg.seed = 8;
    EXPECT_NE(toTraceText(generateLoad(cfg)), toTraceText(a))
        << "the seed must matter";
}

TEST(LoadGen, RateChangesArrivalsNotShapes)
{
    LoadGenConfig slow;
    slow.qps = 100;
    slow.requests = 30;
    LoadGenConfig fast = slow;
    fast.qps = 10000;
    const std::vector<Request> a = generateLoad(slow);
    const std::vector<Request> b = generateLoad(fast);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        // Same workload mix; only the arrival clock differs.
        EXPECT_EQ(a[i].scenario, b[i].scenario) << i;
        EXPECT_EQ(a[i].model, b[i].model) << i;
        EXPECT_EQ(a[i].client, b[i].client) << i;
        EXPECT_EQ(a[i].priority, b[i].priority) << i;
    }
    EXPECT_GT(a.back().arrival_us, b.back().arrival_us)
        << "lower qps spreads arrivals out";
}

TEST(LoadGen, MixCoversClientsPrioritiesAndModels)
{
    LoadGenConfig cfg;
    cfg.requests = 120;
    const std::vector<Request> reqs = generateLoad(cfg);
    std::set<std::string> clients;
    std::set<int> priorities;
    size_t models = 0;
    for (const Request &r : reqs) {
        clients.insert(r.client);
        priorities.insert(r.priority);
        if (r.isModel()) ++models;
    }
    EXPECT_EQ(clients.size(), 4u);
    EXPECT_EQ(priorities.size(), 3u);
    EXPECT_GT(models, 0u) << "every 40th request schedules a whole model";
}

TEST(LoadGen, TraceReplaysIdenticallyThroughTheDaemon)
{
    // trace -> parse -> daemon must equal requests -> daemon directly.
    const std::vector<Request> reqs = smallLoad(16);
    std::vector<Request> replayed;
    std::istringstream in(toTraceText(reqs));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        Request req;
        std::string error;
        ASSERT_TRUE(Request::parse(line, &req, &error)) << error;
        replayed.push_back(req);
    }
    const DaemonRun direct = runDaemon(reqs, DaemonOptions());
    const DaemonRun via_trace = runDaemon(replayed, DaemonOptions());
    EXPECT_EQ(zeroWallCsv(direct.report.toCsv()),
              zeroWallCsv(via_trace.report.toCsv()));
    EXPECT_EQ(zeroWallJson(direct.report.toJson()),
              zeroWallJson(via_trace.report.toJson()));
}

// ---------------------------------------------------------------------------
// feather_serve CLI
// ---------------------------------------------------------------------------

TEST(ServeCli, ParsesFullCommandLine)
{
    ServeCliConfig config;
    std::string error;
    ASSERT_TRUE(parseServeCli(
        {"--qps", "500", "--requests", "100", "--jobs", "8", "--seed", "11",
         "--engine", "analytic", "--vworkers", "4", "--max-queue", "32",
         "--quota", "2=8", "--clock-mhz", "500", "--trace", "t.jsonl",
         "--report-csv", "a.csv", "--report-json", "b.json", "--quiet"},
        &config, &error))
        << error;
    EXPECT_EQ(config.mode, ServeCliConfig::Mode::LoadGen);
    EXPECT_EQ(config.load.qps, 500u);
    EXPECT_EQ(config.load.requests, 100u);
    EXPECT_EQ(config.daemon.num_threads, 8);
    EXPECT_EQ(config.daemon.base_seed, 11u);
    EXPECT_EQ(config.daemon.engine, sim::EngineMode::Analytic);
    EXPECT_EQ(config.daemon.virt.vworkers, 4);
    EXPECT_EQ(config.daemon.virt.max_queue, 32);
    EXPECT_EQ(config.daemon.virt.quota[2], 8);
    EXPECT_EQ(config.daemon.clock_mhz, 500u);
    EXPECT_EQ(config.trace_path, "t.jsonl");
    EXPECT_EQ(config.report_csv, "a.csv");
    EXPECT_EQ(config.report_json, "b.json");
    EXPECT_TRUE(config.quiet);
}

TEST(ServeCli, NumericFlagsRejectJunkNamingTheFlag)
{
    // Satellite contract: one-line error, names the flag, rejects both
    // non-numeric and non-positive values.
    struct Case
    {
        std::vector<std::string> args;
        const char *flag;
    };
    const Case cases[] = {
        {{"--stdin", "--jobs", "0"}, "--jobs"},
        {{"--stdin", "--jobs", "abc"}, "--jobs"},
        {{"--stdin", "--jobs", "-2"}, "--jobs"},
        {{"--stdin", "--jobs", "257"}, "--jobs"},
        {{"--stdin", "--seed", "0"}, "--seed"},
        {{"--stdin", "--seed", "12x"}, "--seed"},
        {{"--qps", "0", "--requests", "5"}, "--qps"},
        {{"--qps", "fast", "--requests", "5"}, "--qps"},
        {{"--qps", "10", "--requests", "0"}, "--requests"},
        {{"--qps", "10", "--requests", "many"}, "--requests"},
        {{"--stdin", "--vworkers", "0"}, "--vworkers"},
        {{"--stdin", "--max-queue", "-1"}, "--max-queue"},
        {{"--stdin", "--clock-mhz", "0"}, "--clock-mhz"},
        {{"--stdin", "--quota", "3=1"}, "--quota"},
        {{"--stdin", "--quota", "5=1"}, "--quota"},
        {{"--stdin", "--quota", "9=4"}, "--quota"},
        {{"--stdin", "--quota", "-1=2"}, "--quota"},
        {{"--stdin", "--quota", "1:2"}, "--quota"},
        {{"--stdin", "--quota", "1="}, "--quota"},
        {{"--listen", "65536"}, "--listen"},
    };
    for (const Case &c : cases) {
        ServeCliConfig config;
        std::string error;
        EXPECT_FALSE(parseServeCli(c.args, &config, &error)) << c.flag;
        EXPECT_NE(error.find(c.flag), std::string::npos)
            << "error must name the flag: " << error;
        EXPECT_EQ(error.find('\n'), std::string::npos)
            << "one-line error: " << error;
    }
}

TEST(ServeCli, ModeSelectionIsStrict)
{
    ServeCliConfig config;
    std::string error;
    EXPECT_FALSE(parseServeCli({}, &config, &error));
    EXPECT_NE(error.find("mode"), std::string::npos);
    EXPECT_FALSE(
        parseServeCli({"--stdin", "--replay", "t.jsonl"}, &config, &error));
    EXPECT_FALSE(parseServeCli({"--qps", "10"}, &config, &error));
    EXPECT_NE(error.find("--requests"), std::string::npos);
    EXPECT_FALSE(
        parseServeCli({"--stdin", "--trace", "t.jsonl"}, &config, &error));
    EXPECT_NE(error.find("--trace"), std::string::npos);
    EXPECT_FALSE(parseServeCli({"--frobnicate"}, &config, &error));
    EXPECT_NE(error.find("--frobnicate"), std::string::npos);

    ASSERT_TRUE(parseServeCli({"--help"}, &config, &error)) << error;
    EXPECT_TRUE(config.help);
    ASSERT_TRUE(parseServeCli({"--replay", "t.jsonl"}, &config, &error));
    EXPECT_EQ(config.mode, ServeCliConfig::Mode::Replay);
    EXPECT_EQ(config.replay_path, "t.jsonl");
}

// ---------------------------------------------------------------------------
// Daemon report schema (golden lock; see tests/golden/)
// ---------------------------------------------------------------------------

namespace schema {

DaemonReport
sampleReport()
{
    return runDaemon(smallLoad(8), DaemonOptions()).report;
}

TEST(DaemonReportSchema, CsvColumnsMatchGolden)
{
    const std::vector<std::string> golden =
        golden::readGoldenLines("daemon_report_csv_header.golden");
    ASSERT_EQ(golden.size(), 1u);
    EXPECT_EQ(golden::csvHeader(sampleReport().toCsv()), golden[0])
        << "daemon CSV columns are locked; update the golden file "
           "deliberately when extending the schema";
}

TEST(DaemonReportSchema, JsonKeysMatchGolden)
{
    const std::vector<std::string> golden =
        golden::readGoldenLines("daemon_report_json_keys.golden");
    EXPECT_EQ(golden::jsonKeys(sampleReport().toJson()), golden)
        << "daemon JSON keys are locked; update the golden file "
           "deliberately when extending the schema";
}

TEST(DaemonReportSchema, WallFieldsFollowTheSuffixConvention)
{
    // Every non-deterministic field must end in _wall_us so the shared
    // normalizer (common/report_norm) zeroes it; lock the ones we have.
    const std::string csv = sampleReport().toCsv();
    EXPECT_NE(golden::csvHeader(csv).find("queue_wall_us"),
              std::string::npos);
    EXPECT_NE(golden::csvHeader(csv).find("service_wall_us"),
              std::string::npos);
    const std::string json = sampleReport().toJson();
    EXPECT_NE(json.find("\"run_wall_us\":"), std::string::npos);
}

} // namespace schema

} // namespace
} // namespace daemon
} // namespace feather
