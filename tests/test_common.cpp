/**
 * @file
 * Unit tests for src/common: bit utilities, RNG determinism, statistics,
 * table formatting, the latency histogram, flat-JSON parsing, numeric
 * flag parsing, and the shared wall-clock report normalizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/bits.hpp"
#include "common/histogram.hpp"
#include "common/json_min.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "common/parse.hpp"
#include "common/report_norm.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace feather {
namespace {

TEST(Bits, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(65));
    EXPECT_TRUE(isPow2(uint64_t{1} << 40));
}

TEST(Bits, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(2), 1u);
    EXPECT_EQ(log2Exact(16), 4u);
    EXPECT_EQ(log2Exact(1024), 10u);
}

TEST(Bits, Log2Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(5), 3u);
    EXPECT_EQ(log2Ceil(17), 5u);
}

TEST(Bits, NextPow2)
{
    EXPECT_EQ(nextPow2(0), 1u);
    EXPECT_EQ(nextPow2(1), 1u);
    EXPECT_EQ(nextPow2(3), 4u);
    EXPECT_EQ(nextPow2(16), 16u);
    EXPECT_EQ(nextPow2(17), 32u);
}

TEST(Bits, CeilDivRoundUp)
{
    EXPECT_EQ(ceilDiv(7, 2), 4);
    EXPECT_EQ(ceilDiv(8, 2), 4);
    EXPECT_EQ(ceilDiv(int64_t{0}, int64_t{5}), 0);
    EXPECT_EQ(roundUp(7, 4), 8);
    EXPECT_EQ(roundUp(8, 4), 8);
}

TEST(Bits, ReverseBitsMatchesAlgorithm1)
{
    // Worked examples from Alg. 1 semantics: reverse low `range` bits only.
    EXPECT_EQ(reverseBits(0b000, 3), 0b000u);
    EXPECT_EQ(reverseBits(0b001, 3), 0b100u);
    EXPECT_EQ(reverseBits(0b011, 3), 0b110u);
    EXPECT_EQ(reverseBits(0b110, 3), 0b011u);
    // Higher bits are preserved.
    EXPECT_EQ(reverseBits(0b1001, 3), 0b1100u);
    // Range 1 is the identity.
    for (uint32_t v = 0; v < 8; ++v) {
        EXPECT_EQ(reverseBits(v, 1), v);
    }
}

TEST(Bits, ReverseBitsIsInvolution)
{
    for (uint32_t range = 1; range <= 6; ++range) {
        for (uint32_t v = 0; v < 64; ++v) {
            EXPECT_EQ(reverseBits(reverseBits(v, range), range), v);
        }
    }
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(13), 13u);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= (v == -3);
        hit_hi |= (v == 3);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double acc = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        acc += u;
    }
    EXPECT_NEAR(acc / 10000.0, 0.5, 0.02);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Table, RendersAlignedAndCsv)
{
    Table t({"design", "latency"});
    t.addRow({"FEATHER", "1.00x"});
    t.addRow({"NVDLA-like", "2.00x"});
    const std::string s = t.toString();
    EXPECT_NE(s.find("FEATHER"), std::string::npos);
    EXPECT_NE(s.find("NVDLA-like"), std::string::npos);
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("design,latency"), std::string::npos);
    EXPECT_NE(csv.find("FEATHER,1.00x"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtDouble(1.2345, 2), "1.23");
    EXPECT_EQ(fmtRatio(2.654, 2), "2.65x");
    EXPECT_EQ(fmtPercent(0.983, 1), "98.3%");
}

TEST(Log, StrCat)
{
    EXPECT_EQ(strCat("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(strCat(), "");
}

// ---------------------------------------------------------------------------
// Numeric flag parsing
// ---------------------------------------------------------------------------

TEST(Parse, ParsePositiveRejectsZeroJunkAndOverflow)
{
    uint64_t v = 0;
    EXPECT_TRUE(parsePositive("1", &v));
    EXPECT_EQ(v, 1u);
    EXPECT_TRUE(parsePositive("256", &v, 256));
    EXPECT_EQ(v, 256u);

    EXPECT_FALSE(parsePositive("0", &v));
    EXPECT_FALSE(parsePositive("", &v));
    EXPECT_FALSE(parsePositive("-3", &v));
    EXPECT_FALSE(parsePositive("4x", &v));
    EXPECT_FALSE(parsePositive("abc", &v));
    EXPECT_FALSE(parsePositive("257", &v, 256)) << "above the cap";
    // Failure must not clobber the previous value.
    v = 77;
    EXPECT_FALSE(parsePositive("zero", &v));
    EXPECT_EQ(v, 77u);
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(Histogram, EmptyAndSingleSample)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50), 0);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 0);

    h.record(42);
    EXPECT_EQ(h.count(), 1u);
    for (double p : {0.0, 50.0, 99.0, 100.0}) {
        EXPECT_EQ(h.percentile(p), 42) << "p" << p;
    }
}

TEST(Histogram, SmallValuesHaveExactQuantiles)
{
    // Values below 64 occupy singleton buckets, so every percentile of a
    // small-valued distribution is exact, not approximate.
    LatencyHistogram h;
    for (int64_t v = 1; v <= 20; ++v) h.record(v);
    EXPECT_EQ(h.percentile(50), 10);  // rank ceil(0.50*20) = 10
    EXPECT_EQ(h.percentile(95), 19);  // rank 19
    EXPECT_EQ(h.percentile(99), 20);  // rank 20
    EXPECT_EQ(h.percentile(100), 20);
    EXPECT_EQ(h.percentile(0), 1);
    EXPECT_EQ(h.min(), 1);
    EXPECT_EQ(h.max(), 20);
    EXPECT_EQ(h.total(), 210);
}

TEST(Histogram, NegativeSamplesClampToZero)
{
    LatencyHistogram h;
    h.record(-5);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.percentile(50), 0);
}

TEST(Histogram, BucketBoundsRoundTrip)
{
    // bucketLowerBound(bucketIndex(v)) <= v, and the lower bound maps to
    // its own bucket — across the exact range, bucket edges, and large
    // values.
    const int64_t probes[] = {0,   1,    63,   64,        65,
                              127, 128,  4095, 4096,      100000,
                              int64_t(1) << 40, (int64_t(1) << 40) + 12345};
    for (int64_t v : probes) {
        const size_t b = LatencyHistogram::bucketIndex(v);
        ASSERT_LT(b, LatencyHistogram::kNumBuckets) << v;
        const int64_t lo = LatencyHistogram::bucketLowerBound(b);
        EXPECT_LE(lo, v) << v;
        EXPECT_EQ(LatencyHistogram::bucketIndex(lo), b) << v;
        if (v < 64) {
            EXPECT_EQ(lo, v) << "small values are exact";
        }
    }
}

TEST(Histogram, RelativeErrorBoundedByBucketWidth)
{
    LatencyHistogram h;
    h.record(1000000);
    const int64_t p = h.percentile(50);
    EXPECT_LE(p, 1000000);
    // 1/64 relative bucket width.
    EXPECT_GE(p, 1000000 - 1000000 / 64);
}

TEST(Histogram, InsertionOrderDoesNotChangePercentiles)
{
    std::vector<int64_t> values;
    Rng rng(13);
    for (int i = 0; i < 500; ++i) {
        values.push_back(int64_t(rng.below(100000)));
    }
    LatencyHistogram forward, shuffled;
    for (int64_t v : values) forward.record(v);
    std::shuffle(values.begin(), values.end(), std::mt19937(99));
    for (int64_t v : values) shuffled.record(v);
    for (double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
        EXPECT_EQ(forward.percentile(p), shuffled.percentile(p)) << p;
    }
    EXPECT_EQ(forward.total(), shuffled.total());
}

TEST(Histogram, MergeIsAssociativeAndCommutative)
{
    // Three disjoint shards; every merge order must agree bit-exactly with
    // recording everything into one histogram.
    LatencyHistogram a, b, c, all;
    Rng rng(7);
    for (int i = 0; i < 300; ++i) {
        const int64_t v = int64_t(rng.below(1 << 20));
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
        all.record(v);
    }
    LatencyHistogram ab_c = a;   // (a+b)+c
    ab_c.merge(b);
    ab_c.merge(c);
    LatencyHistogram c_ba = c;   // (c+b)+a
    c_ba.merge(b);
    c_ba.merge(a);
    for (LatencyHistogram *m : {&ab_c, &c_ba}) {
        EXPECT_EQ(m->count(), all.count());
        EXPECT_EQ(m->min(), all.min());
        EXPECT_EQ(m->max(), all.max());
        EXPECT_EQ(m->total(), all.total());
        for (double p : {50.0, 95.0, 99.0}) {
            EXPECT_EQ(m->percentile(p), all.percentile(p)) << p;
        }
    }
}

// ---------------------------------------------------------------------------
// Flat JSON parsing (daemon wire format)
// ---------------------------------------------------------------------------

TEST(JsonMin, ParsesScalarsOfEveryKind)
{
    JsonObject obj;
    std::string error;
    ASSERT_TRUE(JsonObject::parse(
        "{\"s\":\"text\",\"n\":42,\"neg\":-7,\"b\":true,\"z\":null}", &obj,
        &error))
        << error;
    ASSERT_EQ(obj.entries().size(), 5u);
    EXPECT_EQ(obj.entries()[0].first, "s") << "input order preserved";
    const JsonScalar *s = obj.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind, JsonScalar::Kind::String);
    EXPECT_EQ(s->text, "text");
    uint64_t u = 0;
    ASSERT_TRUE(obj.find("n")->asUint(&u));
    EXPECT_EQ(u, 42u);
    int64_t i = 0;
    ASSERT_TRUE(obj.find("neg")->asInt(&i));
    EXPECT_EQ(i, -7);
    EXPECT_FALSE(obj.find("neg")->asUint(&u)) << "negative is not a uint";
    EXPECT_TRUE(obj.find("b")->boolean);
    EXPECT_EQ(obj.find("z")->kind, JsonScalar::Kind::Null);
    EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(JsonMin, UnescapesStrings)
{
    JsonObject obj;
    std::string error;
    ASSERT_TRUE(JsonObject::parse(
        "{\"k\":\"a\\\"b\\\\c\\nd\\te\"}", &obj, &error))
        << error;
    EXPECT_EQ(obj.find("k")->text, "a\"b\\c\nd\te");
}

TEST(JsonMin, RejectsMalformedInput)
{
    JsonObject obj;
    std::string error;
    const char *bad[] = {
        "",                            // empty
        "not json",                    // no object
        "[1,2]",                       // array at top level
        "{\"a\":1",                    // unterminated
        "{\"a\":{\"b\":1}}",           // nested object
        "{\"a\":[1]}",                 // nested array
        "{\"a\":1}trailing",           // trailing garbage
        "{\"a\":1,\"a\":2}",           // duplicate key
        "{\"a\":}",                    // missing value
        "{\"a\" 1}",                   // missing colon
        "{\"a\":\"\\x\"}",             // bad escape
        "{a:1}",                       // unquoted key
    };
    for (const char *text : bad) {
        error.clear();
        EXPECT_FALSE(JsonObject::parse(text, &obj, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(JsonMin, WhitespaceTolerantAndEmptyObjectOk)
{
    JsonObject obj;
    std::string error;
    ASSERT_TRUE(JsonObject::parse("  { \"a\" : 1 , \"b\" : \"x\" }  ", &obj,
                                  &error))
        << error;
    EXPECT_EQ(obj.entries().size(), 2u);
    ASSERT_TRUE(JsonObject::parse("{}", &obj, &error)) << error;
    EXPECT_TRUE(obj.entries().empty());
}

// ---------------------------------------------------------------------------
// Shared wall-clock report normalizer
// ---------------------------------------------------------------------------

TEST(ReportNorm, WallFieldNamingConvention)
{
    EXPECT_TRUE(isWallReportField("sim_wall_us"));
    EXPECT_TRUE(isWallReportField("run_wall_us"));
    EXPECT_TRUE(isWallReportField("queue_wall_us"));
    EXPECT_FALSE(isWallReportField("wall_us_total"));
    EXPECT_FALSE(isWallReportField("cycles"));
    EXPECT_FALSE(isWallReportField(""));
    EXPECT_FALSE(isWallReportField("_wall_u"));
}

TEST(ReportNorm, CsvZeroesEveryWallColumn)
{
    const std::string csv = "job,sim_wall_us,cycles,queue_wall_us\n"
                            "a,123,10,456\n"
                            "b,789,20,12\n";
    EXPECT_EQ(zeroWallCsv(csv), "job,sim_wall_us,cycles,queue_wall_us\n"
                                "a,0,10,0\n"
                                "b,0,20,0\n");
    // No wall columns: byte-identical passthrough.
    const std::string plain = "a,b\n1,2\n";
    EXPECT_EQ(zeroWallCsv(plain), plain);
}

TEST(ReportNorm, JsonZeroesWallValuesButNotLookalikes)
{
    const std::string json =
        "{\"cycles\":5,\"sim_wall_us\":9999,\"note\":\"sim_wall_us: 3\","
        "\"run_wall_us\":-12,\"inner_wall_us\":7}";
    EXPECT_EQ(zeroWallJson(json),
              "{\"cycles\":5,\"sim_wall_us\":0,\"note\":\"sim_wall_us: 3\","
              "\"run_wall_us\":0,\"inner_wall_us\":0}")
        << "string values mentioning a wall key must survive untouched";
}

TEST(ReportNorm, AutoFormatDetection)
{
    EXPECT_EQ(zeroWallReport("  {\"sim_wall_us\":3}"),
              "  {\"sim_wall_us\":0}");
    EXPECT_EQ(zeroWallReport("a,sim_wall_us\nx,3\n"), "a,sim_wall_us\nx,0\n");
    EXPECT_EQ(zeroWallReport("a,sim_wall_us\nx,3\n", "csv"),
              "a,sim_wall_us\nx,0\n");
}

// ---------------------------------------------------------------------------
// OptionTable (the declarative CLI flag table shared by every binary)
// ---------------------------------------------------------------------------

TEST(Options, ParsesEveryBuilderKind)
{
    bool verbose = false;
    std::string name;
    uint64_t count = 0;
    int width = 0;
    int level = 99;
    std::string custom;
    OptionTable t;
    t.flag("--verbose", "say more", &verbose);
    t.str("--name", "S", "a string", &name);
    t.positive("--count", "N", "a count", &count);
    t.positiveInt("--width", "N", "a width", &width, 64);
    t.rangedInt("--level", "N", "a level", &level, 2);
    t.custom("--mode", "M", "a mode", [&custom](const std::string &v) {
        if (v != "fast" && v != "slow") {
            return OptionTable::invalidValue("--mode", v, "fast or slow");
        }
        custom = v;
        return std::string();
    });
    std::string error;
    ASSERT_TRUE(t.parse({"--verbose", "--name", "x", "--count", "7",
                         "--width", "32", "--level", "2", "--mode", "slow"},
                        &error))
        << error;
    EXPECT_TRUE(verbose);
    EXPECT_EQ(name, "x");
    EXPECT_EQ(count, 7u);
    EXPECT_EQ(width, 32);
    EXPECT_EQ(level, 2);
    EXPECT_EQ(custom, "slow");
}

TEST(Options, ErrorsNameTheFlagAndTheExpectation)
{
    uint64_t count = 0;
    int width = 0;
    int level = 0;
    uint64_t seed = 0;
    OptionTable t;
    t.positive("--count", "N", "", &count);
    t.positiveInt("--width", "N", "", &width, 64);
    t.rangedInt("--level", "N", "", &level, 2);
    t.nonNegative("--seed", "N", "", &seed);

    struct Case
    {
        std::vector<std::string> args;
        const char *expect;
    };
    const Case cases[] = {
        {{"--count", "0"}, "invalid value for --count: '0' (expected a "
                           "positive integer)"},
        {{"--count", "abc"}, "invalid value for --count: 'abc' (expected "
                             "a positive integer)"},
        {{"--width", "65"},
         "invalid value for --width: '65' (expected a positive integer "
         "<= 64)"},
        {{"--level", "3"},
         "invalid value for --level: '3' (expected an integer in 0..2)"},
        {{"--seed", "-1"},
         "invalid value for --seed: '-1' (expected a non-negative "
         "integer)"},
        {{"--count"}, "--count needs a value"},
    };
    for (const Case &c : cases) {
        std::string error;
        EXPECT_FALSE(t.parse(c.args, &error)) << c.args[0];
        EXPECT_EQ(error, c.expect);
    }
}

TEST(Options, UnknownFlagsCarryTheConfiguredSuffix)
{
    OptionTable t;
    t.unknownSuffix(" (see tool --help)");
    std::string error;
    EXPECT_FALSE(t.parse({"--bogus"}, &error));
    EXPECT_EQ(error, "unknown flag '--bogus' (see tool --help)");

    OptionTable bare;
    EXPECT_FALSE(bare.parse({"--bogus"}, &error));
    EXPECT_EQ(error, "unknown flag '--bogus'");
}

TEST(Options, ShortHelpAliasMapsToHelp)
{
    bool help = false;
    OptionTable t;
    t.flag("--help", "show this text", &help);
    std::string error;
    ASSERT_TRUE(t.parse({"-h"}, &error)) << error;
    EXPECT_TRUE(help);
}

TEST(Options, HelpTextAlignsFlagsAndContinuationLines)
{
    bool flag = false;
    std::string value;
    OptionTable t;
    t.flag("--quiet", "suppress chatter", &flag);
    t.str("--workload", "NAME", "first line\nsecond line", &value);
    const std::string help = t.helpText();
    EXPECT_EQ(help,
              "  --quiet               suppress chatter\n"
              "  --workload NAME       first line\n"
              "                        second line\n");
}

TEST(Options, LaterOccurrencesOverrideEarlierOnes)
{
    std::string name;
    OptionTable t;
    t.str("--name", "S", "", &name);
    std::string error;
    ASSERT_TRUE(t.parse({"--name", "a", "--name", "b"}, &error)) << error;
    EXPECT_EQ(name, "b") << "last occurrence wins, like getopt";
}

} // namespace
} // namespace feather
