/**
 * @file
 * Tests for the model subsystem: graph binding validation, the model-file
 * parser, the BIRRD reorder switching-cost model, schedule policies, the
 * per-layer DP scheduler (including the headline property: the per-layer
 * schedule never loses to the best fixed dataflow on the built-in
 * graphs), scheduler determinism across thread counts, the seed
 * independence that lets a shared PlanCache memoize candidate stats, the
 * model-mode CLI, and the golden-file schema lock of the schedule report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/report_norm.hpp"
#include "common/rng.hpp"
#include "golden_util.hpp"
#include "model/graph.hpp"
#include "model/model_cli.hpp"
#include "model/report.hpp"
#include "model/scheduler.hpp"
#include "sim/driver.hpp"
#include "sim/scenario.hpp"

namespace feather {
namespace model {
namespace {

using golden::csvHeader;
using golden::jsonKeys;
using golden::readGoldenLines;

// ---------------------------------------------------------------------------
// ModelGraph
// ---------------------------------------------------------------------------

TEST(ModelGraph, BuiltinsValidateAndResolve)
{
    EXPECT_GE(builtinModels().size(), 3u);
    for (const ModelGraph &g : builtinModels()) {
        EXPECT_EQ(g.validate(), "") << g.name;
        EXPECT_GT(g.totalMacs(), 0) << g.name;
        EXPECT_EQ(findModel(g.name), &g);
    }
    EXPECT_EQ(findModel("nope"), nullptr);
    const std::vector<std::string> names = modelNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "resnet_block"),
              names.end());
}

TEST(ModelGraph, RejectsBrokenChannelBinding)
{
    ModelGraph g;
    g.name = "bad";
    g.layers = {{sim::convLayer("a", 8, 14, 16, 1, 1, 0), 0.02f},
                {sim::convLayer("b", 8, 14, 16, 1, 1, 0), 0.02f}};
    const std::string why = g.validate();
    EXPECT_NE(why.find("16 channels"), std::string::npos) << why;
}

TEST(ModelGraph, RejectsSpatialMismatchAndMixedOps)
{
    ModelGraph g;
    g.name = "bad";
    g.layers = {{sim::convLayer("a", 8, 14, 8, 3, 2, 1), 0.02f}, // -> 7x7
                {sim::convLayer("b", 8, 14, 8, 3, 1, 1), 0.02f}};
    EXPECT_NE(g.validate().find("7x7"), std::string::npos);

    g.layers = {{sim::gemmLayer("fc", 8, 16, 32), 0.02f},
                {sim::convLayer("c", 16, 4, 8, 1, 1, 0), 0.02f}};
    EXPECT_NE(g.validate().find("conv<->GEMM"), std::string::npos);

    g.layers.clear();
    EXPECT_NE(g.validate().find("no layers"), std::string::npos);
}

TEST(ModelGraph, RejectsNonFiniteMultipliers)
{
    // NaN fails no `<= 0` check; validate() must still reject it.
    ModelGraph g;
    g.name = "qm";
    for (const float qm : {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(), 0.0f}) {
        g.layers = {{sim::convLayer("a", 8, 14, 8, 1, 1, 0), qm}};
        EXPECT_NE(g.validate().find("finite positive qm multiplier"),
                  std::string::npos)
            << qm << ": " << g.validate();
    }
}

TEST(ModelGraph, DepthwiseBindsByChannelCount)
{
    ModelGraph g;
    g.name = "dw";
    g.layers = {{sim::convLayer("pw", 8, 14, 16, 1, 1, 0), 0.02f},
                {sim::depthwiseLayer("dw", 16, 14, 3, 1, 1), 0.05f},
                {sim::convLayer("out", 16, 14, 8, 1, 1, 0), 0.02f}};
    EXPECT_EQ(g.validate(), "");
}

// ---------------------------------------------------------------------------
// Model-file parser
// ---------------------------------------------------------------------------

TEST(ModelFile, ParsesDirectivesAndLayerTypes)
{
    const std::string text = "# comment\n"
                             "model tiny\n"
                             "aw 4\n"
                             "ah 8\n"
                             "conv name=stem c=8 hw=14 m=16 rs=3 pad=1\n"
                             "depthwise c=16 hw=14 rs=3 pad=1 qm=0.05\n"
                             "pointwise name=pw c=16 hw=14 m=8\n";
    std::string error;
    const auto g = parseModelText(text, "fallback", &error);
    ASSERT_TRUE(g.has_value()) << error;
    EXPECT_EQ(g->name, "tiny");
    EXPECT_EQ(g->default_aw, 4);
    EXPECT_EQ(g->default_ah, 8);
    ASSERT_EQ(g->layers.size(), 3u);
    EXPECT_EQ(g->layers[0].spec.name, "stem");
    EXPECT_EQ(g->layers[0].spec.conv.r, 3);
    EXPECT_EQ(g->layers[1].spec.type, OpType::DepthwiseConv);
    EXPECT_FLOAT_EQ(g->layers[1].multiplier, 0.05f);
    EXPECT_EQ(g->layers[2].spec.conv.r, 1);
    EXPECT_EQ(g->validate(), "");
}

TEST(ModelFile, ParsesGemmChain)
{
    std::string error;
    const auto g = parseModelText("gemm name=a m=8 n=16 k=32\n"
                                  "gemm name=b m=8 n=4 k=16\n",
                                  "mlp", &error);
    ASSERT_TRUE(g.has_value()) << error;
    EXPECT_EQ(g->name, "mlp");
    EXPECT_EQ(g->layers[0].spec.gemm.n, 16);
}

TEST(ModelFile, ErrorsNameTheLine)
{
    std::string error;
    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=8\nwat x=1\n", "t",
                                &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("unknown layer type 'wat'"), std::string::npos);

    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=8 zap=3\n", "t", &error));
    EXPECT_NE(error.find("unknown key 'zap'"), std::string::npos) << error;

    EXPECT_FALSE(parseModelText("conv hw=14 m=8\n", "t", &error));
    EXPECT_NE(error.find("needs c="), std::string::npos) << error;

    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=8 qm=zero\n", "t",
                                &error));
    EXPECT_NE(error.find("qm"), std::string::npos) << error;
    // strtof reads inf/nan and overflows 1e39 to inf; requantization
    // rounds those to an unspecified integer on both sides of the
    // bit-exact check.
    for (const char *qm : {"inf", "1e39", "nan", "-inf"}) {
        EXPECT_FALSE(parseModelText(
            strCat("conv c=8 hw=14 m=8 qm=", qm, "\n"), "t", &error));
        EXPECT_NE(error.find(strCat("finite positive number, got '", qm,
                                    "'")),
                  std::string::npos)
            << error;
    }

    // Pointwise layers are fixed at r=s=1; kernel keys must be rejected.
    EXPECT_FALSE(parseModelText("pointwise c=8 hw=14 m=8 rs=3\n", "t",
                                &error));
    EXPECT_NE(error.find("unknown key 'rs' for a pointwise layer"),
              std::string::npos)
        << error;

    // Keys another layer type consumes are still typos here: a silently
    // dropped m= on a depthwise layer would schedule a different model.
    EXPECT_FALSE(parseModelText("depthwise c=16 hw=14 rs=3 pad=1 m=999\n",
                                "t", &error));
    EXPECT_NE(error.find("unknown key 'm' for a depthwise layer"),
              std::string::npos)
        << error;
    EXPECT_FALSE(parseModelText("gemm m=8 n=4 k=4 stride=2\n", "t",
                                &error));
    EXPECT_NE(error.find("unknown key 'stride'"), std::string::npos)
        << error;

    // Conflicting duplicates must not silently resolve to either value.
    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=16 c=32\n", "t",
                                &error));
    EXPECT_NE(error.find("duplicate key 'c'"), std::string::npos) << error;

    // Zero is invalid for every dimension key except pad (a zero stride
    // or extent would crash the shape math downstream).
    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=16 rs=3 stride=0\n", "t",
                                &error));
    EXPECT_NE(error.find("stride needs a positive integer"),
              std::string::npos)
        << error;
    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=16 w=0\n", "t", &error));
    EXPECT_NE(error.find("w needs a positive integer"), std::string::npos)
        << error;
    EXPECT_TRUE(parseModelText("conv c=8 hw=14 m=16 rs=3 pad=0\n", "t",
                               &error)
                    .has_value())
        << error;

    // A per-line parse pass is not enough: the chain must also bind.
    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=8\n"
                                "conv c=99 hw=14 m=8\n",
                                "t", &error));
    EXPECT_NE(error.find("8 channels"), std::string::npos) << error;
}

TEST(ModelFile, LoadModelPrefersBuiltinsAndListsNamesOnFailure)
{
    std::string error;
    const auto g = loadModel("resnet_block", &error);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->layers.size(), 3u);

    EXPECT_FALSE(loadModel("no_such_model", &error).has_value());
    EXPECT_NE(error.find("unknown model 'no_such_model'"),
              std::string::npos);
    for (const std::string &name : modelNames()) {
        EXPECT_NE(error.find(name), std::string::npos) << error;
    }
}

// ---------------------------------------------------------------------------
// Switching-cost model
// ---------------------------------------------------------------------------

TEST(ReorderCost, ZeroWhenConcordant)
{
    Extents e;
    e[Dim::C] = 8;
    e[Dim::H] = 4;
    e[Dim::W] = 4;
    const Layout l = Layout::parse("HWC_C8");
    EXPECT_EQ(reorderCost(l, l, e), 0);
}

TEST(ReorderCost, CountsDistinctSourceLinesPerDestinationLine)
{
    // 2x2x2 CHW tensor: HWC_C2 lines hold {(c=0..1, h, w)}, CHW_W2 lines
    // hold {(c, h, w=0..1)}. Every destination line draws from exactly 2
    // source lines; 4 destination lines -> 8 read cycles.
    Extents e;
    e[Dim::C] = 2;
    e[Dim::H] = 2;
    e[Dim::W] = 2;
    EXPECT_EQ(reorderCost(Layout::parse("CHW_W2"), Layout::parse("HWC_C2"),
                          e),
              8);
    // The transpose in the other direction is symmetric here.
    EXPECT_EQ(reorderCost(Layout::parse("HWC_C2"), Layout::parse("CHW_W2"),
                          e),
              8);
}

TEST(ReorderCost, GrowsWithTensorSize)
{
    Extents small;
    small[Dim::C] = 4;
    small[Dim::H] = 4;
    small[Dim::W] = 4;
    Extents big = small;
    big[Dim::H] = 16;
    big[Dim::W] = 16;
    const Layout src = Layout::parse("CHW_W4");
    const Layout dst = Layout::parse("HWC_C4");
    EXPECT_LT(reorderCost(src, dst, small), reorderCost(src, dst, big));
}

// Every pair of the searched conv and GEMM layout spaces against a
// brute-force count of distinct (destination line, source line) pairs, at
// extents that are not multiples of the intra sizes (ragged last lines).
TEST(ReorderCost, MatchesBruteForceLinePairsOverTheLayoutSpaces)
{
    const auto bruteForce = [](const Layout &src, const Layout &dst,
                               const Extents &e, const std::vector<Dim> &dims) {
        if (src == dst) return int64_t(0);
        const BoundLayout from(src, e), to(dst, e);
        int64_t elems = 1;
        for (Dim d : dims) elems *= e[d];
        std::set<std::pair<int64_t, int64_t>> pairs;
        for (int64_t i = 0; i < elems; ++i) {
            Coord c;
            int64_t rest = i;
            for (Dim d : dims) {
                c[d] = rest % e[d];
                rest /= e[d];
            }
            pairs.insert({to.addrOf(c).line, from.addrOf(c).line});
        }
        return int64_t(pairs.size());
    };
    Extents conv;
    conv[Dim::C] = 6;
    conv[Dim::H] = 5;
    conv[Dim::W] = 7;
    Extents gemm;
    gemm[Dim::M] = 6;
    gemm[Dim::K] = 37;
    int pairs = 0;
    for (const auto &[space, e, dims] :
         {std::make_tuple(convLayoutSpace(), conv,
                          std::vector<Dim>{Dim::C, Dim::H, Dim::W}),
          std::make_tuple(gemmLayoutSpace(), gemm,
                          std::vector<Dim>{Dim::M, Dim::K})}) {
        for (const Layout &src : space) {
            for (const Layout &dst : space) {
                EXPECT_EQ(reorderCost(src, dst, e),
                          bruteForce(src, dst, e, dims))
                    << src.toString() << " -> " << dst.toString();
                ++pairs;
            }
        }
    }
    EXPECT_EQ(pairs, 7 * 7 + 3 * 3);
}

// The closed form against a walk over every element on random layout
// pairs: dims absent from one or both inter orders, a dim repeated in an
// inter order, intra sizes that are not powers of two, ragged extents
// (including 0 and 1), N beside the conv dims, and M/K.
TEST(ReorderCost, MatchesElementWalkOnRandomLayouts)
{
    const auto walk = [](const Layout &src, const Layout &dst,
                         const Extents &e) {
        if (src == dst) return int64_t(0);
        const BoundLayout from(src, e), to(dst, e);
        std::vector<int64_t> pairs;
        Coord c;
        const auto visit = [&](const auto &self, int d) -> void {
            if (d == kNumDims) {
                pairs.push_back(to.addrOf(c).line * from.numLines() +
                                from.addrOf(c).line);
                return;
            }
            const int64_t n = std::max<int64_t>(e[Dim(d)], 1);
            for (c[Dim(d)] = 0; c[Dim(d)] < n; ++c[Dim(d)]) {
                self(self, d + 1);
            }
            c[Dim(d)] = 0;
        };
        visit(visit, 0);
        std::sort(pairs.begin(), pairs.end());
        return int64_t(std::unique(pairs.begin(), pairs.end()) -
                       pairs.begin());
    };
    Rng rng(23);
    const auto randomLayout = [&rng](const std::vector<Dim> &pool) {
        std::vector<Dim> inter;
        for (Dim d : pool) {
            if (rng.chance(0.7)) inter.push_back(d);
        }
        std::shuffle(inter.begin(), inter.end(), rng);
        if (!inter.empty() && rng.chance(0.2)) {
            inter.insert(inter.begin() + rng.below(inter.size() + 1),
                         inter[rng.below(inter.size())]);
        }
        std::vector<IntraFactor> intra;
        for (Dim d : pool) {
            if (rng.chance(0.5)) intra.push_back({d, rng.range(1, 6)});
        }
        if (intra.empty()) intra.push_back({pool[0], rng.range(1, 6)});
        std::shuffle(intra.begin(), intra.end(), rng);
        return Layout(std::move(inter), std::move(intra));
    };
    int absent = 0, repeated = 0, odd_size = 0, ragged = 0;
    for (const auto &[pool, max_extent] :
         {std::make_pair(std::vector<Dim>{Dim::N, Dim::C, Dim::H, Dim::W}, 8),
          std::make_pair(std::vector<Dim>{Dim::M, Dim::K}, 40)}) {
        for (int i = 0; i < 2000; ++i) {
            Extents e;
            for (Dim d : pool) e[d] = rng.range(0, max_extent);
            const Layout src = randomLayout(pool);
            const Layout dst = rng.chance(0.1) ? src : randomLayout(pool);
            ASSERT_EQ(reorderCost(src, dst, e), walk(src, dst, e))
                << src.toString() << " -> " << dst.toString();
            for (const Layout *l : {&src, &dst}) {
                const std::vector<Dim> &o = l->interOrder();
                const std::set<Dim> distinct(o.begin(), o.end());
                repeated += distinct.size() < o.size();
                for (Dim d : pool) {
                    absent += e[d] > 1 && distinct.count(d) == 0;
                    odd_size += !isPow2(uint64_t(l->intraSize(d)));
                    ragged += e[d] % l->intraSize(d) != 0;
                }
            }
        }
    }
    EXPECT_GT(absent, 0);
    EXPECT_GT(repeated, 0);
    EXPECT_GT(odd_size, 0);
    EXPECT_GT(ragged, 0);
}

// About 2^40 elements: the closed form does no per-element work and
// allocates nothing, so it answers at once. A 2^20 x 2^20 transpose from
// MK_K32 to MK_M32 reads 32 source lines for each of 2^35 destination
// lines; to MK_M4K8, 4 source lines for each of 2^35.
TEST(ReorderCost, PricesHugeTensorsWithoutWalkingThem)
{
    Extents e;
    e[Dim::M] = int64_t(1) << 20;
    e[Dim::K] = int64_t(1) << 20;
    const Layout k32 = Layout::parse("MK_K32");
    EXPECT_EQ(reorderCost(k32, Layout::parse("MK_M32"), e), int64_t(1) << 40);
    EXPECT_EQ(reorderCost(k32, Layout::parse("MK_M4K8"), e),
              int64_t(1) << 37);
    // Intra sizes above 2^32 whose lcm overflows int64: along M each line
    // index changes at 255 multiples, never both at once, so 1 + 2 * 255
    // pairs; the lcm term is taken as 1 without forming the lcm.
    e[Dim::K] = 1;
    e[Dim::M] = int64_t(1) << 40;
    EXPECT_EQ(reorderCost(Layout::parse("MK_M4294967311"),
                          Layout::parse("MK_M4294967357"), e),
              511);
}

// ---------------------------------------------------------------------------
// Schedule policies
// ---------------------------------------------------------------------------

TEST(SchedulePolicy, ParsesAllForms)
{
    EXPECT_EQ(parseSchedule("per-layer")->kind, ScheduleKind::PerLayer);
    EXPECT_EQ(parseSchedule("greedy")->kind, ScheduleKind::Greedy);
    const auto fixed = parseSchedule("fixed:wp");
    ASSERT_TRUE(fixed.has_value());
    EXPECT_EQ(fixed->kind, ScheduleKind::Fixed);
    EXPECT_EQ(fixed->fixed, sim::DataflowKind::WindowParallel);
    EXPECT_EQ(toString(*fixed), "fixed:window-parallel");
    EXPECT_EQ(toString(*parseSchedule("fixed:canonical")),
              "fixed:canonical");

    std::string error;
    EXPECT_FALSE(parseSchedule("fixed:zz", &error).has_value());
    EXPECT_NE(error.find("unknown schedule"), std::string::npos);
    EXPECT_FALSE(parseSchedule("random", &error).has_value());
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(Scheduler, EnumeratesAndEvaluatesCandidates)
{
    const ModelGraph *g = findModel("resnet_block");
    ASSERT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto eval = s.evaluate(*g, &error);
    ASSERT_TRUE(eval.has_value()) << error;
    ASSERT_EQ(eval->layers.size(), 3u);
    for (const auto &cands : eval->layers) {
        EXPECT_GE(cands.size(), 2u) << "conv layers have distinct families";
        for (const Candidate &c : cands) {
            EXPECT_GT(c.est_cycles, 0);
            EXPECT_GT(c.macs, 0);
            EXPECT_FALSE(c.kinds.empty());
        }
    }
    EXPECT_GT(s.cache().stats().lookups(), 0u);
}

TEST(Scheduler, GemmFamiliesCollapseToOneCandidate)
{
    const ModelGraph *g = findModel("bert_mlp");
    ASSERT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto eval = s.evaluate(*g, &error);
    ASSERT_TRUE(eval.has_value()) << error;
    for (const auto &cands : eval->layers) {
        ASSERT_EQ(cands.size(), 1u);
        EXPECT_EQ(cands[0].kinds.size(), 3u)
            << "all three families plan to the canonical GEMM mapping";
    }
}

TEST(Scheduler, PerLayerNeverLosesToBestFixedOnBuiltins)
{
    for (const ModelGraph &g : builtinModels()) {
        Scheduler s;
        std::string error;
        const auto cmp = s.compare(
            g, SchedulePolicy{ScheduleKind::PerLayer,
                              sim::DataflowKind::Canonical, {}},
            &error);
        ASSERT_TRUE(cmp.has_value()) << g.name << ": " << error;
        const ScheduleResult &p = cmp->primary();
        EXPECT_TRUE(p.bitExact()) << g.name;
        const int best = cmp->bestFixed();
        ASSERT_GE(best, 0) << g.name;
        EXPECT_LE(p.cycles, cmp->schedules[size_t(best)].cycles) << g.name;
        EXPECT_GE(cmp->speedupVsBestFixed(), 1.0) << g.name;
        for (const ScheduleResult &r : cmp->schedules) {
            EXPECT_TRUE(r.bitExact()) << g.name << "/" << r.schedule;
        }
    }
}

TEST(Scheduler, PerLayerStrictlyBeatsAFixedDataflowOnResnetBlock)
{
    const ModelGraph *g = findModel("resnet_block");
    ASSERT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto cmp = s.compare(
        *g,
        SchedulePolicy{ScheduleKind::PerLayer, sim::DataflowKind::Canonical, {}},
        &error);
    ASSERT_TRUE(cmp.has_value()) << error;
    bool beat_one = false;
    for (const ScheduleResult &r : cmp->schedules) {
        if (r.schedule.rfind("fixed:", 0) == 0 &&
            cmp->primary().cycles < r.cycles) {
            beat_one = true;
        }
    }
    EXPECT_TRUE(beat_one)
        << "per-layer must strictly beat at least one fixed dataflow";
}

TEST(Scheduler, FixedScheduleMatchesItsStandaloneEstimates)
{
    // A uniform schedule hands off concordant layouts at every edge, so
    // the standalone candidate estimates must compose exactly to the
    // measured chain (est_total == cycles, all reorder prices zero).
    const ModelGraph *g = findModel("resnet_block");
    ASSERT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto eval = s.evaluate(*g, &error);
    ASSERT_TRUE(eval.has_value()) << error;
    const auto fixed = s.schedule(
        *g, *eval,
        SchedulePolicy{ScheduleKind::Fixed,
                       sim::DataflowKind::WindowParallel, {}},
        &error);
    ASSERT_TRUE(fixed.has_value()) << error;
    EXPECT_EQ(fixed->est_total, fixed->cycles);
    for (const LayerChoice &l : fixed->layers) {
        EXPECT_EQ(l.reorder_cycles, 0);
        EXPECT_EQ(l.est_cycles, l.cycles);
        EXPECT_EQ(l.dataflow, sim::DataflowKind::WindowParallel);
    }
}

TEST(Scheduler, GreedyRespectsPreviousChoice)
{
    const ModelGraph *g = findModel("resnet_block");
    ASSERT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto eval = s.evaluate(*g, &error);
    ASSERT_TRUE(eval.has_value()) << error;
    const auto greedy = s.schedule(
        *g, *eval,
        SchedulePolicy{ScheduleKind::Greedy, sim::DataflowKind::Canonical, {}},
        &error);
    ASSERT_TRUE(greedy.has_value()) << error;
    EXPECT_TRUE(greedy->bitExact());
    EXPECT_LE(greedy->layers[0].est_cycles,
              eval->layers[0][0].est_cycles)
        << "greedy starts from the cheapest first-layer candidate";
}

TEST(Scheduler, ReportIsBitIdenticalAcrossThreadCounts)
{
    const ModelGraph *g = findModel("mobilenet_slice");
    ASSERT_NE(g, nullptr);
    std::string csv1, json1;
    for (int threads : {1, 8}) {
        SchedulerOptions opts;
        opts.num_threads = threads;
        Scheduler s(opts);
        std::string error;
        const auto cmp = s.compare(
            *g,
            SchedulePolicy{ScheduleKind::PerLayer,
                           sim::DataflowKind::Canonical, {}},
            &error);
        ASSERT_TRUE(cmp.has_value()) << error;
        const ScheduleReport report{*cmp};
        if (threads == 1) {
            csv1 = zeroWallCsv(report.toCsv());
            json1 = zeroWallJson(report.toJson());
        } else {
            EXPECT_EQ(zeroWallCsv(report.toCsv()), csv1);
            EXPECT_EQ(zeroWallJson(report.toJson()), json1);
        }
    }
}

/** Every field of @p r but the wall time, per layer too. */
std::string
deterministicFields(const ScheduleResult &r)
{
    std::ostringstream os;
    os << r.model << " " << r.schedule << " " << r.aw << "x" << r.ah
       << " seed=" << r.seed << " est=" << r.est_total
       << " cycles=" << r.cycles << " macs=" << r.macs
       << " stalls=" << r.read_stalls << "/" << r.write_stalls
       << " checked=" << r.checked << " mismatches=" << r.mismatches
       << " engine=" << sim::toString(r.engine)
       << " arena=" << r.arena_peak_bytes << " fleet=" << r.fleet
       << " nodes=" << r.search_nodes << " handoffs=" << r.handoffs << "/"
       << r.handoff_cycles;
    for (const LayerChoice &l : r.layers) {
        os << "\n  " << l.layer << " " << l.op << " "
           << sim::toString(l.dataflow) << " " << l.plan.mapping.toString()
           << " " << l.plan.in_layout.toString() << " "
           << l.plan.out_layout.toString() << " est=" << l.est_cycles
           << " reorder=" << l.reorder_cycles << " dev=" << l.device << ":"
           << l.device_name << " cycles=" << l.cycles << " macs=" << l.macs
           << " stalls=" << l.read_stalls << "/" << l.write_stalls
           << " pe=" << l.pe_cycles;
    }
    return os.str();
}

TEST(Scheduler, SharedReferenceStillVerifiesEverySegment)
{
    // compare() computes each segment's reference once and shares it with
    // every measured chain of that segment. Each chain must still compare
    // its whole read-back: checked counts the final output of every
    // same-device segment, on one device and on the CI smoke fleet, and
    // the comparison is the same at any thread count.
    FleetSpec smoke;
    std::string error;
    ASSERT_TRUE(parseFleetSpec("feather:16x16,feather:32x32,tpu-like",
                               &smoke, &error))
        << error;
    for (const ModelGraph &g : builtinModels()) {
        for (const FleetSpec &fleet : {FleetSpec{}, smoke}) {
            std::vector<ScheduleComparison> runs;
            for (int threads : {1, 4}) {
                SchedulerOptions opts;
                opts.num_threads = threads;
                opts.fleet = fleet;
                Scheduler s(opts);
                std::optional<ScheduleComparison> cmp =
                    s.compare(g, SchedulePolicy{}, &error);
                ASSERT_TRUE(cmp.has_value()) << g.name << ": " << error;
                runs.push_back(std::move(*cmp));
            }
            for (const ScheduleResult &r : runs[0].schedules) {
                int64_t segment_outputs = 0;
                for (size_t i = 0; i < r.layers.size(); ++i) {
                    if (i + 1 < r.layers.size() &&
                        r.layers[i + 1].device == r.layers[i].device) {
                        continue;
                    }
                    const Extents e = oactIactExtents(g.layers[i].spec);
                    int64_t elems = 1;
                    for (int d = 0; d < kNumDims; ++d) {
                        if (e[Dim(d)] > 0) elems *= e[Dim(d)];
                    }
                    segment_outputs += elems;
                }
                EXPECT_EQ(r.checked, segment_outputs)
                    << g.name << " " << r.schedule << " on " << r.fleet;
                EXPECT_EQ(r.mismatches, 0)
                    << g.name << " " << r.schedule << " on " << r.fleet;
            }
            ASSERT_EQ(runs[0].schedules.size(), runs[1].schedules.size());
            for (size_t k = 0; k < runs[0].schedules.size(); ++k) {
                EXPECT_EQ(deterministicFields(runs[0].schedules[k]),
                          deterministicFields(runs[1].schedules[k]));
            }
            EXPECT_EQ(runs[0].cache.toJson(), runs[1].cache.toJson());
        }
    }
}

TEST(Scheduler, IgnoresDataflowPins)
{
    // A scenario is a pinned graph; the scheduler searches every layer
    // whatever it pins, so the pinned and unpinned graphs schedule alike.
    const sim::ModelGraph *pinned = sim::findScenario("resnet_block");
    ASSERT_NE(pinned, nullptr);
    ModelGraph unpinned = *pinned;
    for (ModelLayer &ml : unpinned.layers) ml.dataflow.reset();
    const ModelGraph *catalogue = findModel("resnet_block");
    ASSERT_NE(catalogue, nullptr);
    ASSERT_EQ(catalogue->layers.size(), unpinned.layers.size());
    for (size_t i = 0; i < unpinned.layers.size(); ++i) {
        EXPECT_EQ(catalogue->layers[i].spec.name,
                  unpinned.layers[i].spec.name);
        EXPECT_FALSE(catalogue->layers[i].dataflow.has_value());
    }

    std::vector<std::string> reports;
    const ModelGraph *graphs[] = {pinned, &unpinned};
    for (const ModelGraph *g : graphs) {
        Scheduler s;
        std::string error;
        const auto cmp = s.compare(
            *g,
            SchedulePolicy{ScheduleKind::PerLayer,
                           sim::DataflowKind::Canonical, {}},
            &error);
        ASSERT_TRUE(cmp.has_value()) << error;
        const ScheduleReport report{*cmp};
        reports.push_back(zeroWallCsv(report.toCsv()) +
                          zeroWallJson(report.toJson()));
    }
    EXPECT_EQ(reports[0], reports[1]);
}

// ---------------------------------------------------------------------------
// Seed independence: what lets the PlanCache memoize candidate stats
// ---------------------------------------------------------------------------

constexpr uint64_t kSeeds[] = {1, 7, 77777};

/** @p multiplier and a second, distinct one: layers of equal shape share
 *  a memo entry whatever their multipliers. */
std::vector<float>
multipliers(float multiplier)
{
    return {multiplier, multiplier * 8.0f};
}

TEST(SeedIndependence, ScenarioLayerStatsIgnoreSeedAndMultiplier)
{
    // Every scenario layer x every family that plans at the scenario's
    // default shape x both tiers: 3 seeds x 2 multipliers, the first run
    // verified and every other one not, all with field-for-field equal
    // LayerStats.
    for (const sim::ModelGraph &s : sim::scenarios()) {
        for (const sim::ModelLayer &sl : s.layers) {
            for (const sim::EngineMode mode :
                 {sim::EngineMode::Cycle, sim::EngineMode::Analytic}) {
                for (const sim::DataflowKind kind : kFamilies) {
                    const std::optional<sim::LayerPlan> plan =
                        sim::planLayer(kind, sl.spec, s.default_aw,
                                       s.default_ah, nullptr, mode);
                    if (!plan) continue;
                    const std::string where =
                        strCat(s.name, "/", sl.spec.name, "/",
                               sim::toString(kind), "/", sim::toString(mode));
                    std::optional<LayerStats> first;
                    for (const uint64_t seed : kSeeds) {
                        for (const float mult : multipliers(sl.multiplier)) {
                            sim::RunOptions opts;
                            opts.aw = s.default_aw;
                            opts.ah = s.default_ah;
                            opts.engine = mode;
                            opts.seed = seed;
                            opts.mapping = plan->mapping;
                            opts.in_layout = plan->in_layout;
                            opts.out_layout = plan->out_layout;
                            opts.quant.multiplier = mult;
                            opts.verify = !first.has_value();
                            const sim::RunResult r =
                                sim::runLayer(sl.spec, opts);
                            if (!first) {
                                if (mode == sim::EngineMode::Cycle) {
                                    EXPECT_TRUE(r.bitExact()) << where;
                                }
                                first = r.stats;
                            }
                            EXPECT_EQ(r.stats, *first)
                                << where << " seed " << seed << " x" << mult
                                << ": " << r.stats.toString() << " vs "
                                << first->toString();
                        }
                    }
                }
            }
        }
    }
}

TEST(SeedIndependence, EveryBuiltinCandidateReplaysBitExactAtItsEstimate)
{
    // Evaluation runs its candidates unverified and memoizes their stats.
    // Replay every candidate of every built-in graph with verification on,
    // at other seeds and multipliers: each is bit-exact, and its stats
    // equal the memo field for field.
    for (const ModelGraph &g : builtinModels()) {
        Scheduler s;
        std::string error;
        const auto eval = s.evaluate(g, &error);
        ASSERT_TRUE(eval.has_value()) << g.name << ": " << error;
        for (size_t li = 0; li < eval->layers.size(); ++li) {
            const ModelLayer &ml = g.layers[li];
            for (const Candidate &c : eval->layers[li]) {
                const std::string key = serve::PlanCache::key(
                    sim::EngineMode::Cycle, c.kinds.front(), ml.spec,
                    g.default_aw, g.default_ah);
                const std::optional<LayerStats> memo =
                    s.cache().findStats(key);
                ASSERT_TRUE(memo.has_value()) << key;
                EXPECT_EQ(memo->cycles, c.est_cycles) << key;
                EXPECT_EQ(memo->macs, c.macs) << key;
                for (const uint64_t seed : kSeeds) {
                    for (const float mult : multipliers(ml.multiplier)) {
                        sim::RunOptions opts;
                        opts.aw = g.default_aw;
                        opts.ah = g.default_ah;
                        opts.seed = seed;
                        opts.mapping = c.plan.mapping;
                        opts.in_layout = c.plan.in_layout;
                        opts.out_layout = c.plan.out_layout;
                        opts.quant.multiplier = mult;
                        const sim::RunResult r = sim::runLayer(ml.spec, opts);
                        EXPECT_TRUE(r.bitExact()) << key << " seed " << seed;
                        EXPECT_EQ(r.stats, *memo) << key << " seed " << seed;
                    }
                }
            }
        }
    }
}

/** Field-for-field equality of two evaluations. */
void
expectSameEvaluation(const Evaluation &a, const Evaluation &b)
{
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t li = 0; li < a.layers.size(); ++li) {
        ASSERT_EQ(a.layers[li].size(), b.layers[li].size()) << li;
        for (size_t ci = 0; ci < a.layers[li].size(); ++ci) {
            const Candidate &x = a.layers[li][ci];
            const Candidate &y = b.layers[li][ci];
            EXPECT_EQ(x.kinds, y.kinds);
            EXPECT_EQ(x.plan.mapping.toString(), y.plan.mapping.toString());
            EXPECT_EQ(x.plan.in_layout.toString(),
                      y.plan.in_layout.toString());
            EXPECT_EQ(x.plan.out_layout.toString(),
                      y.plan.out_layout.toString());
            EXPECT_EQ(x.est_cycles, y.est_cycles);
            EXPECT_EQ(x.macs, y.macs);
            EXPECT_EQ(x.device, y.device);
        }
    }
    EXPECT_EQ(a.edges, b.edges);
}

TEST(Scheduler, SharedCacheSimulatesEachCandidateOnce)
{
    const ModelGraph *g = findModel("mobilenet_slice");
    ASSERT_NE(g, nullptr);
    serve::PlanCache cache;
    SchedulerOptions first_opts;
    first_opts.seed = 1;
    first_opts.shared_cache = &cache;
    SchedulerOptions second_opts = first_opts;
    second_opts.seed = 77777;
    second_opts.num_threads = 4;
    std::string error;
    Scheduler first(first_opts);
    const auto a = first.evaluate(*g, &error);
    ASSERT_TRUE(a.has_value()) << error;
    const serve::PlanCache::Stats before = cache.stats();

    Scheduler second(second_opts);
    const auto b = second.evaluate(*g, &error);
    ASSERT_TRUE(b.has_value()) << error;
    expectSameEvaluation(*a, *b);
    size_t candidates = 0;
    for (const auto &layer : b->layers) candidates += layer.size();
    const serve::PlanCache::Stats after = cache.stats();
    EXPECT_EQ(after.memo_hits - before.memo_hits, candidates)
        << "the second evaluation runs no candidate";
    EXPECT_EQ(after.entries, before.entries);
    EXPECT_EQ(after.misses, before.misses);

    // A private cache at the second seed simulates everything afresh and
    // lands on the same table.
    SchedulerOptions private_opts;
    private_opts.seed = second_opts.seed;
    Scheduler alone(private_opts);
    const auto c = alone.evaluate(*g, &error);
    ASSERT_TRUE(c.has_value()) << error;
    expectSameEvaluation(*a, *c);
}

TEST(Scheduler, ConcurrentSchedulersAgreeThroughOneMemo)
{
    // The daemon's shape: schedulers at different seeds racing on one
    // cache. Racing misses each run and store; the store checks the
    // stats agree, and every thread sees the same table.
    const ModelGraph *g = findModel("mobilenet_slice");
    ASSERT_NE(g, nullptr);
    serve::PlanCache cache;
    std::vector<std::optional<Evaluation>> evals(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < evals.size(); ++t) {
        threads.emplace_back([&, t] {
            SchedulerOptions opts;
            opts.seed = 100 + t;
            opts.num_threads = 2;
            opts.shared_cache = &cache;
            evals[t] = Scheduler(opts).evaluate(*g);
        });
    }
    for (std::thread &t : threads) t.join();
    for (const std::optional<Evaluation> &e : evals) {
        ASSERT_TRUE(e.has_value());
        expectSameEvaluation(*evals.front(), *e);
    }
}

TEST(Scheduler, RejectsBadArrays)
{
    const ModelGraph *g = findModel("resnet_block");
    ASSERT_NE(g, nullptr);
    SchedulerOptions opts;
    opts.aw = 6; // not a power of two
    Scheduler s(opts);
    std::string error;
    EXPECT_FALSE(s.evaluate(*g, &error).has_value());
    EXPECT_NE(error.find("power of two"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

TEST(ModelCli, DetectsModelMode)
{
    EXPECT_TRUE(isModelInvocation({"--model", "resnet_block"}));
    EXPECT_TRUE(isModelInvocation({"--list-models"}));
    EXPECT_TRUE(isModelInvocation({"--schedule", "greedy"}));
    EXPECT_FALSE(isModelInvocation({"--workload", "gemm"}));
    EXPECT_FALSE(isModelInvocation({"--sweep", "gemm"}));
}

TEST(ModelCli, ParsesFlagsAndRejectsBadInput)
{
    const ModelCliParse ok = parseModelCli(
        {"--model", "bert_mlp", "--schedule", "greedy", "--aw", "8",
         "--ah", "4", "--seed", "7", "--jobs", "2", "--report-csv", "a.csv",
         "--report-json", "a.json"});
    ASSERT_TRUE(ok.ok()) << ok.error;
    EXPECT_EQ(ok.opts.model, "bert_mlp");
    EXPECT_EQ(ok.opts.schedule, "greedy");
    EXPECT_EQ(ok.opts.aw, 8);
    EXPECT_EQ(ok.opts.jobs, 2);

    EXPECT_FALSE(parseModelCli({"--model"}).ok());
    EXPECT_FALSE(parseModelCli({"--model", "x", "--jobs", "0"}).ok());
    EXPECT_FALSE(parseModelCli({"--model", "x", "--wat"}).ok());
    EXPECT_FALSE(parseModelCli({"--schedule", "greedy"}).ok())
        << "--schedule without --model must demand a model";
}

TEST(ModelCli, ExitCodesAreLocked)
{
    const auto run = [](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "feather_cli");
        return cliMain(int(argv.size()), argv.data());
    };
    EXPECT_EQ(run({"--list-models"}), 0);
    EXPECT_EQ(run({"--model", "bert_mlp", "--schedule", "fixed:ws"}), 0);
    EXPECT_EQ(run({"--model", "no_such_model"}), 2);
    EXPECT_EQ(run({"--model", "bert_mlp", "--schedule", "wat"}), 2);
    EXPECT_EQ(run({"--model"}), 2);
}

// BIRRD's routing masks cover 64 columns: scheduling a model on a wider
// array is a one-line usage error, not an abort in the topology.
TEST(ModelCli, ArrayWiderThanBirrdIsAUsageError)
{
    const char *argv[] = {"feather_cli", "--model", "resnet_block",
                          "--aw",        "128",     "--ah",
                          "8"};
    ::testing::internal::CaptureStderr();
    const int rc = cliMain(7, argv);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "error: array width (--aw) must be in 2..64, got 128\n");
    EXPECT_EQ(rc, 2);
}

TEST(ModelCli, LocalTileOverPeRegisterFileIsAPlanningError)
{
    // A family whose Phase-1 local tile outgrows the PE register file
    // (512 weights) does not fit: a usage error (exit 2) naming the tile,
    // not an abort in the accelerator's mapping check.
    const auto write = [](const std::string &name, const std::string &text) {
        const std::string path = ::testing::TempDir() + name;
        std::ofstream(path) << text;
        return path;
    };
    const std::string conv = write("t1_conv.model",
                                   "conv name=a c=4 hw=24 m=8 rs=23 pad=11\n");
    const std::string gemm =
        write("t1_gemm.model", "gemm name=a m=4 n=4 k=2048\n");
    const auto run = [](std::vector<const char *> argv, std::string *err) {
        argv.insert(argv.begin(), "feather_cli");
        ::testing::internal::CaptureStderr();
        const int rc = cliMain(int(argv.size()), argv.data());
        *err = ::testing::internal::GetCapturedStderr();
        return rc;
    };
    std::string err;
    EXPECT_EQ(run({"--model", conv.c_str()}, &err), 2);
    EXPECT_EQ(err, "error: no dataflow family fits a on a 8x8 array: "
                   "window-parallel does not fit a: local tile 529 exceeds "
                   "the PE register file (512)\n");
    EXPECT_EQ(run({"--model", gemm.c_str(), "--ah", "1024"}, &err), 2);
    EXPECT_NE(err.find("local tile 1024 exceeds the PE register file (512)"),
              std::string::npos)
        << err;
}

// ---------------------------------------------------------------------------
// Schedule report schema (golden lock)
// ---------------------------------------------------------------------------

ScheduleReport
sampleReport()
{
    const ModelGraph *g = findModel("bert_mlp");
    EXPECT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto cmp = s.compare(
        *g,
        SchedulePolicy{ScheduleKind::PerLayer, sim::DataflowKind::Canonical, {}},
        &error);
    EXPECT_TRUE(cmp.has_value()) << error;
    return ScheduleReport{*cmp};
}

TEST(ScheduleReportSchema, CsvColumnsMatchGolden)
{
    const std::vector<std::string> golden =
        readGoldenLines("schedule_report_csv_header.golden");
    ASSERT_EQ(golden.size(), 1u);
    EXPECT_EQ(csvHeader(sampleReport().toCsv()), golden[0])
        << "schedule CSV columns are locked; update the golden file "
           "deliberately when extending the schema";
}

TEST(ScheduleReportSchema, JsonKeysMatchGolden)
{
    const std::vector<std::string> golden =
        readGoldenLines("schedule_report_json_keys.golden");
    EXPECT_EQ(jsonKeys(sampleReport().toJson()), golden)
        << "schedule JSON keys are locked; update the golden file "
           "deliberately when extending the schema";
}

} // namespace
} // namespace model
} // namespace feather
