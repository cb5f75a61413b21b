/**
 * @file
 * Tests for the sim driver library behind `feather_cli`: scenario-registry
 * lookup, CLI flag parsing (unknown-flag rejection), dataflow/layout
 * derivation, and bit-exactness of driver-run layers against the
 * tensor/reference_ops golden implementations.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "sim/cli.hpp"
#include "sim/driver.hpp"
#include "sim/scenario.hpp"
#include "tensor/reference_ops.hpp"

namespace feather {
namespace sim {
namespace {

// ---------------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------------

TEST(ScenarioRegistry, LookupKnownNames)
{
    ASSERT_GE(scenarios().size(), 9u);
    for (const char *name : {"quickstart_conv", "conv3x3", "depthwise",
                             "gemm", "resnet_block"}) {
        const ModelGraph *s = findScenario(name);
        ASSERT_NE(s, nullptr) << name;
        EXPECT_EQ(s->name, name);
        EXPECT_FALSE(s->layers.empty());
    }
}

TEST(ScenarioRegistry, LookupUnknownReturnsNull)
{
    EXPECT_EQ(findScenario("no_such_scenario"), nullptr);
    EXPECT_EQ(findScenario(""), nullptr);
}

TEST(ScenarioRegistry, NamesAreUniqueAndOrdered)
{
    const std::vector<std::string> names = scenarioNames();
    EXPECT_EQ(names.size(), scenarios().size());
    const std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
}

TEST(ScenarioRegistry, EveryLayerMappingValidates)
{
    // A scenario is a pinned graph: it binds like any graph, and every
    // layer's pin maps at the scenario's default shape.
    for (const ModelGraph &s : scenarios()) {
        EXPECT_EQ(s.validate(), "") << s.name;
        for (const ModelLayer &ml : s.layers) {
            ASSERT_TRUE(ml.dataflow.has_value())
                << s.name << "/" << ml.spec.name << " is not pinned";
            std::string error;
            const auto m = buildMapping(*ml.dataflow, ml.spec, s.default_aw,
                                        s.default_ah, &error);
            EXPECT_TRUE(m.has_value())
                << s.name << "/" << ml.spec.name << ": " << error;
        }
    }
}

TEST(ScenarioRegistry, AllScenariosRunBitExact)
{
    for (const ModelGraph &s : scenarios()) {
        std::string error;
        const std::optional<ScenarioRun> run = runScenario(s, {}, &error);
        ASSERT_TRUE(run.has_value()) << s.name << ": " << error;
        EXPECT_TRUE(run->chain.bitExact())
            << s.name << ": " << run->chain.mismatches << " of "
            << run->chain.checked << " elements differ";
    }
}

TEST(ScenarioRegistry, SharedReferenceIsTheChainsOwnAndStillChecked)
{
    // A reference handed in (ScenarioOptions::reference) replaces only the
    // reference ops: it equals what the chain computes itself, and the
    // whole read-back is still compared against it element by element, so
    // a corrupted one reports exactly its corrupted elements.
    for (const ModelGraph &s : scenarios()) {
        ScenarioOptions opts;
        opts.seed = 7;
        const Int8Tensor ref = scenarioReference(s, opts.seed);
        std::string error;
        const std::optional<ScenarioRun> own = runScenario(s, opts, &error);
        ASSERT_TRUE(own.has_value()) << s.name << ": " << error;
        ASSERT_TRUE(own->chain.bitExact()) << s.name;
        EXPECT_EQ(own->chain.checked, ref.numel()) << s.name;
        EXPECT_EQ(countMismatches(own->chain.layers.back().output, ref), 0)
            << s.name;

        Int8Tensor corrupted = ref;
        for (const size_t i : {size_t(0), size_t(ref.numel() - 1)}) {
            corrupted[i] = int8_t(corrupted[i] ^ 0x55);
        }
        const int64_t corrupted_elems = ref.numel() > 1 ? 2 : 1;
        for (const auto &[given, mismatches] :
             {std::make_pair(ref, int64_t(0)),
              std::make_pair(corrupted, corrupted_elems)}) {
            opts.reference = std::make_shared<const Int8Tensor>(given);
            const std::optional<ScenarioRun> run =
                runScenario(s, opts, &error);
            ASSERT_TRUE(run.has_value()) << s.name << ": " << error;
            EXPECT_EQ(run->chain.checked, ref.numel()) << s.name;
            EXPECT_EQ(run->chain.mismatches, mismatches) << s.name;
        }
    }
}

TEST(ScenarioRegistry, DataflowOverrideApplies)
{
    const ModelGraph *s = findScenario("conv3x3");
    ASSERT_NE(s, nullptr);
    ScenarioOptions opts;
    opts.dataflow = "wp";
    std::string error;
    const std::optional<ScenarioRun> run = runScenario(*s, opts, &error);
    ASSERT_TRUE(run.has_value()) << error;
    EXPECT_TRUE(run->chain.bitExact());
    EXPECT_EQ(run->chain.layers.front().mapping.cols.front().dim, Dim::Q);
}

TEST(ScenarioRegistry, BadOverridesAreRejected)
{
    const ModelGraph *s = findScenario("gemm");
    ASSERT_NE(s, nullptr);

    ScenarioOptions bad_dataflow;
    bad_dataflow.dataflow = "zigzag";
    std::string error;
    EXPECT_FALSE(runScenario(*s, bad_dataflow, &error).has_value());
    EXPECT_NE(error.find("zigzag"), std::string::npos);

    ScenarioOptions bad_layout;
    bad_layout.layout = "not-a-layout";
    error.clear();
    EXPECT_FALSE(runScenario(*s, bad_layout, &error).has_value());
    EXPECT_NE(error.find("not-a-layout"), std::string::npos);

    // A parsable layout whose dims are not in the layer's iAct tensor must
    // be rejected cleanly, not die on an internal CHECK downstream.
    ScenarioOptions wrong_dims;
    wrong_dims.layout = "HWC_C4"; // conv layout on a [M,K] GEMM
    error.clear();
    EXPECT_FALSE(runScenario(*s, wrong_dims, &error).has_value());
    EXPECT_NE(error.find("HWC_C4"), std::string::npos);

    // BIRRD widths are powers of two; --aw 3 must not reach the topology
    // constructor's panic.
    ScenarioOptions bad_aw;
    bad_aw.aw = 3;
    error.clear();
    EXPECT_FALSE(runScenario(*s, bad_aw, &error).has_value());
    EXPECT_NE(error.find("power of two"), std::string::npos);

    // An unpinned layer runs only under a dataflow override.
    ModelGraph unpinned = *s;
    unpinned.layers.front().dataflow.reset();
    error.clear();
    EXPECT_FALSE(runScenario(unpinned, {}, &error).has_value());
    EXPECT_NE(error.find("pins no dataflow"), std::string::npos) << error;
    ScenarioOptions forced;
    forced.dataflow = "ws";
    EXPECT_TRUE(runScenario(unpinned, forced, &error).has_value()) << error;
}

// ---------------------------------------------------------------------------
// CLI parsing
// ---------------------------------------------------------------------------

TEST(Cli, RejectsUnknownFlag)
{
    const CliParse p = parseCli({"--frobnicate"});
    EXPECT_FALSE(p.ok());
    EXPECT_NE(p.error.find("unknown flag"), std::string::npos);
    EXPECT_NE(p.error.find("--frobnicate"), std::string::npos);
}

TEST(Cli, RejectsMissingValue)
{
    EXPECT_FALSE(parseCli({"--workload"}).ok());
    EXPECT_FALSE(parseCli({"--aw"}).ok());
}

TEST(Cli, RejectsNonNumericValue)
{
    EXPECT_FALSE(parseCli({"--aw", "four"}).ok());
    EXPECT_FALSE(parseCli({"--seed", "-3"}).ok());
    EXPECT_FALSE(parseCli({"--trace", "1x"}).ok());
}

TEST(Cli, RejectsOutOfRangeValues)
{
    // int truncation of huge --aw/--ah must not silently change meaning.
    EXPECT_FALSE(parseCli({"--aw", "4294967296"}).ok());
    EXPECT_FALSE(parseCli({"--ah", "2147483648"}).ok());
    // uint64 wraparound in the digit scan must be rejected, not wrapped.
    EXPECT_FALSE(parseCli({"--seed", "99999999999999999999999999"}).ok());
    EXPECT_TRUE(parseCli({"--aw", "65536"}).ok());
}

TEST(Cli, ParsesEveryFlag)
{
    const CliParse p =
        parseCli({"--workload", "resnet_block", "--dataflow", "ws",
                  "--layout", "HWC_C8", "--aw", "16", "--ah", "8", "--seed",
                  "7", "--trace", "12"});
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(p.opts.workload, "resnet_block");
    EXPECT_EQ(p.opts.dataflow, "ws");
    EXPECT_EQ(p.opts.layout, "HWC_C8");
    EXPECT_EQ(p.opts.aw, 16);
    EXPECT_EQ(p.opts.ah, 8);
    EXPECT_EQ(p.opts.seed, 7u);
    EXPECT_EQ(p.opts.trace, 12u);
    EXPECT_FALSE(p.opts.list);
    EXPECT_FALSE(p.opts.help);
}

TEST(Cli, DefaultsMatchDocumentation)
{
    const CliParse p = parseCli({});
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.opts.workload, "quickstart_conv");
    EXPECT_EQ(p.opts.layout, "concordant");
    EXPECT_TRUE(p.opts.dataflow.empty());
    EXPECT_EQ(p.opts.aw, 0);
}

namespace {

int
runCliMain(const std::vector<const char *> &args)
{
    std::vector<const char *> argv = {"feather_cli"};
    argv.insert(argv.end(), args.begin(), args.end());
    return cliMain(int(argv.size()), argv.data(), usage(""));
}

} // namespace

TEST(Cli, MainRunsConvGemmDepthwiseBitExact)
{
    // Exit code 0 == the run was verified bit-exact against reference_ops.
    EXPECT_EQ(runCliMain({"--workload", "quickstart_conv"}), 0);
    EXPECT_EQ(runCliMain({"--workload", "gemm"}), 0);
    EXPECT_EQ(runCliMain({"--workload", "depthwise"}), 0);
}

TEST(Cli, MainRejectsBadUsage)
{
    EXPECT_EQ(runCliMain({"--bogus"}), 2);
    EXPECT_EQ(runCliMain({"--workload", "no_such_scenario"}), 2);
    EXPECT_EQ(runCliMain({"--workload", "gemm", "--layout", "bad"}), 2);
    EXPECT_EQ(runCliMain({"--workload", "gemm", "--dataflow", "bad"}), 2);
}

// BIRRD's routing masks cover 64 columns: a wider --aw is a one-line
// usage error, not an abort in the topology constructor.
TEST(Cli, MainRejectsArrayWiderThanBirrd)
{
    ::testing::internal::CaptureStderr();
    const int rc =
        runCliMain({"--workload", "conv3x3", "--aw", "128", "--ah", "8"});
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "error: array width (--aw) must be in 2..64, got 128\n");
    EXPECT_EQ(rc, 2);
}

// A layout StaB cannot hold, one whose intra size overflows int64, one
// that leaves a dim out of its inter order and one that repeats a dim are
// one-line usage errors, not an abort or a MISMATCH run.
TEST(Cli, MainRejectsLayoutsTheArrayCannotHold)
{
    const std::pair<const char *, const char *> cases[] = {
        {"CHW_W1000000",
         "error: conv3x3's [N,C,H,W] iActs under layout 'CHW_W1000000' "
         "need 28000000 words per StaB bank; the StaB holds 262144\n"},
        {"HWC_C99999999999999999999",
         "error: layout 'HWC_C99999999999999999999': line size exceeds "
         "576460752303423488 words\n"},
        {"HW_C4",
         "error: layout 'HW_C4' leaves dim C (16 in conv3x3's [N,C,H,W] "
         "iActs) out of its inter order, and its intra size 4 does not "
         "cover it\n"},
        {"CCC_C2", "error: layout 'CCC_C2': dim C repeats in the inter "
                   "order\n"},
    };
    for (const auto &[layout, want] : cases) {
        ::testing::internal::CaptureStderr();
        const int rc = runCliMain({"--workload", "conv3x3", "--layout", layout});
        EXPECT_EQ(::testing::internal::GetCapturedStderr(), want) << layout;
        EXPECT_EQ(rc, 2) << layout;
    }
}

TEST(Cli, MainListAndHelpSucceed)
{
    EXPECT_EQ(runCliMain({"--list"}), 0);
    EXPECT_EQ(runCliMain({"--help"}), 0);
}

// ---------------------------------------------------------------------------
// Driver primitives
// ---------------------------------------------------------------------------

TEST(Driver, ConvRunsBitExact)
{
    RunOptions opts;
    opts.aw = 4;
    opts.ah = 4;
    const RunResult r = runLayer(convLayer("c", 8, 8, 8, 3, 1, 1), opts);
    EXPECT_TRUE(r.bitExact()) << r.mismatches << " mismatches";
    EXPECT_GT(r.stats.cycles, 0);
    EXPECT_GT(r.stats.macs, 0);
}

TEST(Driver, GemmRunsBitExact)
{
    RunOptions opts;
    opts.aw = 4;
    opts.ah = 4;
    const RunResult r = runLayer(gemmLayer("g", 8, 6, 32), opts);
    EXPECT_TRUE(r.bitExact());
    EXPECT_EQ(r.output.shape(), (std::vector<int64_t>{8, 6}));
}

TEST(Driver, DepthwiseRunsBitExact)
{
    RunOptions opts;
    opts.aw = 4;
    opts.ah = 4;
    opts.quant.iact_zp = 5;
    opts.quant.multiplier = 0.1f;
    const RunResult r = runLayer(depthwiseLayer("dw", 8, 6, 3, 1, 1), opts);
    EXPECT_TRUE(r.bitExact());
}

TEST(Driver, ChainThreadsActivationsBitExact)
{
    std::vector<ChainStep> steps(2);
    steps[0].layer = convLayer("l1", 4, 6, 8, 3, 1, 1);
    steps[1].layer = convLayer("l2", 8, 6, 4, 1, 1, 0);
    RunOptions opts;
    opts.aw = 4;
    opts.ah = 4;
    const ChainResult r = runChain(steps, opts);
    ASSERT_EQ(r.layers.size(), 2u);
    EXPECT_TRUE(r.bitExact()) << r.mismatches << " mismatches";
    // Step 0 defaults its oAct layout to step 1's concordant iAct layout.
    EXPECT_EQ(r.layers[0].out_layout.toString(),
              r.layers[1].in_layout.toString());
}

TEST(Driver, ConcordantLayoutsFollowTheMapping)
{
    const LayerSpec conv = convLayer("c", 8, 14, 16, 3, 1, 1);
    const auto cp = buildMapping(DataflowKind::ChannelParallel, conv, 4, 4);
    ASSERT_TRUE(cp.has_value());
    EXPECT_EQ(concordantInputLayout(conv, *cp, 4).toString(), "HWC_C4");
    EXPECT_EQ(concordantOutputLayout(conv, *cp, 4).toString(), "HWC_C4");

    const auto wp = buildMapping(DataflowKind::WindowParallel, conv, 4, 4);
    ASSERT_TRUE(wp.has_value());
    EXPECT_EQ(concordantInputLayout(conv, *wp, 4).toString(), "CHW_W4");

    const LayerSpec g = gemmLayer("g", 8, 6, 32);
    const auto gm = buildMapping(DataflowKind::Canonical, g, 4, 4);
    ASSERT_TRUE(gm.has_value());
    EXPECT_EQ(concordantInputLayout(g, *gm, 4).toString(), "MK_K4");
}

TEST(Driver, PlanLayerBundlesMappingAndConcordantLayouts)
{
    const LayerSpec conv = convLayer("c", 8, 14, 16, 3, 1, 1);
    const auto plan =
        planLayer(DataflowKind::ChannelParallel, conv, 4, 4);
    ASSERT_TRUE(plan.has_value());
    const auto mapping = buildMapping(DataflowKind::ChannelParallel, conv, 4, 4);
    ASSERT_TRUE(mapping.has_value());
    EXPECT_EQ(plan->mapping.toString(), mapping->toString());
    EXPECT_EQ(plan->in_layout.toString(),
              concordantInputLayout(conv, *mapping, 4).toString());
    EXPECT_EQ(plan->out_layout.toString(),
              concordantOutputLayout(conv, *mapping, 4).toString());
}

TEST(ScenarioRegistry, OutLayoutOverrideRetargetsLastLayer)
{
    const ModelGraph *s = findScenario("gemm");
    ASSERT_NE(s, nullptr);
    // Re-target the oActs to M-major banks: same reduction, different
    // banks, still bit-exact (the Fig. 10 zero-cost RIR switch).
    ScenarioOptions opts;
    opts.out_layout = "MK_M4";
    std::string error;
    const std::optional<ScenarioRun> run = runScenario(*s, opts, &error);
    ASSERT_TRUE(run.has_value()) << error;
    EXPECT_TRUE(run->chain.bitExact());
    EXPECT_EQ(run->chain.layers.back().out_layout.toString(), "MK_M4");

    ScenarioOptions bad;
    bad.out_layout = "HWC_C4"; // conv dims on a GEMM's oActs
    error.clear();
    EXPECT_FALSE(runScenario(*s, bad, &error).has_value());
    EXPECT_NE(error.find("HWC_C4"), std::string::npos);
}

TEST(ScenarioRegistry, EmptyScenarioIsRejectedCleanly)
{
    ModelGraph empty;
    empty.name = "empty";
    empty.default_aw = 4;
    empty.default_ah = 4;
    std::string error;
    EXPECT_FALSE(runScenario(empty, {}, &error).has_value());
    EXPECT_NE(error.find("no layers"), std::string::npos);
}

TEST(Driver, TryParseLayoutRejectsMalformedStrings)
{
    std::string error;
    EXPECT_FALSE(Layout::tryParse("garbage", &error).has_value());
    EXPECT_FALSE(Layout::tryParse("HWC_C", &error).has_value());
    EXPECT_FALSE(Layout::tryParse("HWC_Cx", &error).has_value());
    EXPECT_FALSE(Layout::tryParse("ZZ_A4", &error).has_value());
    EXPECT_FALSE(Layout::tryParse("HWC_", &error).has_value());
    EXPECT_FALSE(Layout::tryParse("HWC_C0", &error).has_value());

    const std::optional<Layout> ok = Layout::tryParse("HWC_C8W2", &error);
    ASSERT_TRUE(ok.has_value()) << error;
    EXPECT_EQ(ok->toString(), "HWC_C8W2");
}

TEST(Driver, ReferenceOutputMatchesDirectOps)
{
    // referenceOutput is the single dispatch point the CLI relies on; spot
    // check the conv path against a by-hand call.
    const LayerSpec layer = convLayer("c", 4, 6, 4, 3, 1, 1);
    Rng rng(11);
    const Int8Tensor iacts = randomIacts(layer, rng);
    const Int8Tensor weights = randomWeights(layer, rng);
    LayerQuant quant;
    quant.multiplier = 0.05f;
    const Int8Tensor a = referenceOutput(layer, iacts, weights, quant);
    const Int8Tensor b = requantizeTensor(
        conv2d(iacts, weights, 1, 1, 0, 0), quant.multiplier, 0);
    EXPECT_EQ(countMismatches(a, b), 0);
}

} // namespace
} // namespace sim
} // namespace feather
