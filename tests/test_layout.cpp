/**
 * @file
 * Unit tests for src/layout: the layout grammar of Fig. 3 and the
 * coordinate -> (line, slot) address map, including the paper's worked
 * examples (channel-last HWC_C4, row-major HCW_W8, CHW_W4H2C2), and the
 * stride-table map against the Horner form it expands.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "layout/layout.hpp"

namespace feather {
namespace {

Extents
chwExtents(int64_t c, int64_t h, int64_t w)
{
    Extents e;
    e[Dim::C] = c;
    e[Dim::H] = h;
    e[Dim::W] = w;
    return e;
}

Coord
chw(int64_t c, int64_t h, int64_t w)
{
    Coord x;
    x[Dim::C] = c;
    x[Dim::H] = h;
    x[Dim::W] = w;
    return x;
}

TEST(Layout, ParsePrintRoundTrip)
{
    for (const char *name :
         {"HWC_C32", "HCW_W8", "CHW_W4H2C2", "HWC_C4W8", "MK_K32",
          "MK_M4K8", "HWC_W2C3"}) {
        EXPECT_EQ(Layout::parse(name).toString(), name);
    }
}

TEST(Layout, LineSizeAndIntraSize)
{
    const Layout l = Layout::parse("CHW_W4H2C2");
    EXPECT_EQ(l.lineSize(), 16);
    EXPECT_EQ(l.intraSize(Dim::W), 4);
    EXPECT_EQ(l.intraSize(Dim::H), 2);
    EXPECT_EQ(l.intraSize(Dim::C), 2);
    EXPECT_EQ(l.intraSize(Dim::M), 1);
}

TEST(Layout, Fig3WorkedExample)
{
    // Paper Fig. 3: layer C56 H8 W8, layout CHW_W4H2C2.
    // Line 0 holds W0:3 H0:1 C0:1 flattened W -> H -> C:
    // slot order (w,h,c) = (0,0,0),(0,0,1),(0,1,0),(0,1,1),(1,0,0),...
    const BoundLayout bl(Layout::parse("CHW_W4H2C2"), chwExtents(56, 8, 8));
    EXPECT_EQ(bl.lineSize(), 16);
    // 56/2 * 8/2 * 8/4 = 28*4*2 = 224 lines.
    EXPECT_EQ(bl.numLines(), 224);

    EXPECT_EQ(bl.addrOf(chw(0, 0, 0)), (LineAddr{0, 0}));
    EXPECT_EQ(bl.addrOf(chw(1, 0, 0)), (LineAddr{0, 1}));
    EXPECT_EQ(bl.addrOf(chw(0, 1, 0)), (LineAddr{0, 2}));
    EXPECT_EQ(bl.addrOf(chw(1, 1, 0)), (LineAddr{0, 3}));
    EXPECT_EQ(bl.addrOf(chw(0, 0, 1)), (LineAddr{0, 4}));
    EXPECT_EQ(bl.addrOf(chw(1, 1, 3)), (LineAddr{0, 15}));

    // Inter-line order C -> H -> W: the W-tile advances fastest.
    EXPECT_EQ(bl.addrOf(chw(0, 0, 4)).line, 1);   // next W tile
    EXPECT_EQ(bl.addrOf(chw(0, 2, 0)).line, 2);   // next H tile
    EXPECT_EQ(bl.addrOf(chw(2, 0, 0)).line, 8);   // next C tile: 4*2 lines
}

TEST(Layout, ChannelLastHwcC4)
{
    // Fig. 11 iActs: channel-last HWC_C4 with C=4: line = h*W + w.
    const BoundLayout bl(Layout::parse("HWC_C4"), chwExtents(4, 3, 4));
    EXPECT_EQ(bl.lineSize(), 4);
    EXPECT_EQ(bl.numLines(), 12);
    EXPECT_EQ(bl.addrOf(chw(2, 0, 0)), (LineAddr{0, 2}));
    EXPECT_EQ(bl.addrOf(chw(0, 0, 1)), (LineAddr{1, 0}));
    EXPECT_EQ(bl.addrOf(chw(3, 1, 2)), (LineAddr{6, 3}));
}

TEST(Layout, RowMajorHcwW8)
{
    // Fig. 4 L2/L4 row-major: HCW_W8 flattens 8 W-elements per line;
    // lines ordered H outer, C inner.
    const BoundLayout bl(Layout::parse("HCW_W8"), chwExtents(3, 2, 16));
    EXPECT_EQ(bl.lineSize(), 8);
    EXPECT_EQ(bl.numLines(), 2 * 3 * 2);
    // H0 C0 W0:7 -> line 0; H0 C0 W8:15 -> line 1; H0 C1 W0:7 -> line 2.
    EXPECT_EQ(bl.addrOf(chw(0, 0, 0)).line, 0);
    EXPECT_EQ(bl.addrOf(chw(0, 0, 8)).line, 1);
    EXPECT_EQ(bl.addrOf(chw(1, 0, 0)).line, 2);
    EXPECT_EQ(bl.addrOf(chw(0, 1, 0)).line, 6);
    EXPECT_EQ(bl.addrOf(chw(0, 0, 5)).slot, 5);
}

TEST(Layout, InsightOneChannelParallelConflict)
{
    // Fig. 4-M7: channel-parallel dataflow needs H0W0C0:3 concurrently.
    // Under row-major HCW_W8 those land in four different lines; under
    // channel-last HWC_C4 they land in one line.
    const Extents ext = chwExtents(2048, 7, 7);
    const BoundLayout row_major(Layout::parse("HCW_W8"), ext);
    const BoundLayout channel_last(Layout::parse("HWC_C4"), ext);

    std::set<int64_t> rm_lines, cl_lines;
    for (int64_t c = 0; c < 4; ++c) {
        rm_lines.insert(row_major.addrOf(chw(c, 0, 0)).line);
        cl_lines.insert(channel_last.addrOf(chw(c, 0, 0)).line);
    }
    EXPECT_EQ(rm_lines.size(), 4u);
    EXPECT_EQ(cl_lines.size(), 1u);
}

TEST(Layout, AddrRoundTripExhaustive)
{
    // coordAt(addrOf(c)) == c for every element of a small tensor, for
    // several layouts (property: the map is a bijection).
    const Extents ext = chwExtents(4, 6, 8);
    for (const char *name : {"HWC_C4", "HCW_W8", "CHW_W4H2C2", "HWC_C2W4"}) {
        const BoundLayout bl(Layout::parse(name), ext);
        std::set<std::pair<int64_t, int64_t>> seen;
        for (int64_t c = 0; c < 4; ++c) {
            for (int64_t h = 0; h < 6; ++h) {
                for (int64_t w = 0; w < 8; ++w) {
                    const LineAddr a = bl.addrOf(chw(c, h, w));
                    EXPECT_GE(a.line, 0);
                    EXPECT_LT(a.line, bl.numLines());
                    EXPECT_GE(a.slot, 0);
                    EXPECT_LT(a.slot, bl.lineSize());
                    EXPECT_TRUE(seen.insert({a.line, a.slot}).second)
                        << name << ": address collision";
                    const Coord back = bl.coordAt(a);
                    EXPECT_EQ(back[Dim::C], c) << name;
                    EXPECT_EQ(back[Dim::H], h) << name;
                    EXPECT_EQ(back[Dim::W], w) << name;
                }
            }
        }
    }
}

TEST(Layout, NonDivisibleExtentsPad)
{
    // C=3 under HWC_C4: one C-tile with one empty slot, like Fig. 4-L1/L3
    // "Empty" slots for ResNet-50 layer 1 (C=3).
    const BoundLayout bl(Layout::parse("HWC_C4"), chwExtents(3, 2, 2));
    EXPECT_EQ(bl.numLines(), 4);
    EXPECT_EQ(bl.addrOf(chw(2, 1, 1)), (LineAddr{3, 2}));
}

TEST(Layout, GemmLayouts)
{
    Extents ext;
    ext[Dim::M] = 8;
    ext[Dim::K] = 64;
    const BoundLayout k32(Layout::parse("MK_K32"), ext);
    EXPECT_EQ(k32.numLines(), 8 * 2);
    Coord c;
    c[Dim::M] = 1;
    c[Dim::K] = 33;
    EXPECT_EQ(k32.addrOf(c).line, 3);
    EXPECT_EQ(k32.addrOf(c).slot, 1);

    const BoundLayout m32(Layout::parse("MK_M32"), ext);
    EXPECT_EQ(m32.numLines(), 1 * 64);
    EXPECT_EQ(m32.addrOf(c).line, 33);
    EXPECT_EQ(m32.addrOf(c).slot, 1);
}

TEST(Layout, SpacesMatchPaper)
{
    EXPECT_EQ(convLayoutSpace().size(), 7u);
    EXPECT_EQ(gemmLayoutSpace().size(), 3u);
    for (const auto &l : convLayoutSpace()) {
        EXPECT_EQ(l.lineSize(), 32) << l.toString()
            << ": paper's conv layouts all have 32-word lines";
    }
    for (const auto &l : gemmLayoutSpace()) {
        EXPECT_EQ(l.lineSize(), 32) << l.toString();
    }
}

/** addrOf as the Horner form over the descriptor: the slot flattens each
 *  intra factor's offset, the line each inter dim's tile, outermost
 *  first. */
LineAddr
hornerAddr(const Layout &l, const Extents &e, const Coord &c)
{
    LineAddr addr;
    for (const auto &f : l.intraFactors()) {
        addr.slot = addr.slot * f.size + (c[f.dim] % f.size);
    }
    for (Dim d : l.interOrder()) {
        const int64_t tiles =
            ceilDiv(std::max<int64_t>(e[d], 1), l.intraSize(d));
        addr.line = addr.line * tiles + c[d] / l.intraSize(d);
    }
    return addr;
}

/** A random layout over @p pool: each dim inter with odds 0.8, in random
 *  order, and one to four intra factors of any pool dim (repeats too). */
Layout
randomLayout(Rng &rng, const std::vector<Dim> &pool)
{
    std::vector<Dim> inter;
    for (Dim d : pool) {
        if (rng.chance(0.8)) inter.push_back(d);
    }
    std::shuffle(inter.begin(), inter.end(), rng);
    std::vector<IntraFactor> intra;
    const int64_t factors = rng.range(1, 4);
    for (int64_t i = 0; i < factors; ++i) {
        // Sizes 1..9: powers of two and not, so both the shift/mask
        // and the divide terms run.
        intra.push_back({pool[rng.below(pool.size())], rng.range(1, 9)});
    }
    return Layout(std::move(inter), std::move(intra));
}

TEST(Layout, TryParseRefusesRepeatsAndBoundsTheLineSize)
{
    std::string error;
    const auto refuses = [&](const char *text, const char *why) {
        error.clear();
        EXPECT_FALSE(Layout::tryParse(text, &error).has_value()) << text;
        EXPECT_NE(error.find(why), std::string::npos) << text << ": " << error;
    };
    // An intra size past int64 is refused while its digits are read, and
    // so is a line size past kMaxLineSize.
    refuses("HWC_C99999999999999999999", "line size exceeds");
    refuses("HWC_C9999999999W9999999999", "line size exceeds");
    refuses("MK_M576460752303423489", "line size exceeds");
    refuses("CCC_C2", "dim C repeats in the inter order");
    refuses("HWC_C2W4C2", "dim C repeats among the intra factors");
    refuses("HWX_C2", "unknown dimension 'X'");
    EXPECT_DEATH(Layout::parse("CCC_C2"), "repeats in the inter order");

    const std::optional<Layout> widest =
        Layout::tryParse("MK_M576460752303423488", &error);
    ASSERT_TRUE(widest.has_value()) << error;
    EXPECT_EQ(widest->lineSize(), Layout::kMaxLineSize);
    for (const Layout &l : convLayoutSpace()) {
        EXPECT_EQ(Layout::tryParse(l.toString()), l);
    }
}

TEST(Layout, BankWordsCountsTheBoundLines)
{
    Rng rng(30);
    for (const std::vector<Dim> &pool :
         {std::vector<Dim>{Dim::N, Dim::C, Dim::H, Dim::W},
          std::vector<Dim>{Dim::M, Dim::K}}) {
        for (int i = 0; i < 300; ++i) {
            Extents e;
            for (Dim d : pool) e[d] = rng.range(0, 40);
            const Layout layout = randomLayout(rng, pool);
            const BoundLayout bl(layout, e);
            for (const int64_t banks : {1, 3, 4, 16}) {
                EXPECT_EQ(bankWords(layout, e, banks),
                          bl.numLines() * ceilDiv(bl.lineSize(), banks))
                    << bl.toString() << " on " << banks << " banks";
            }
        }
    }
    Extents huge;
    huge[Dim::M] = huge[Dim::K] = int64_t(1) << 40;
    EXPECT_EQ(bankWords(Layout::parse("MK_K2"), huge, 4), INT64_MAX);
}

TEST(BoundLayout, AddrOfMatchesHornerForm)
{
    Rng rng(24);
    int absent = 0, repeated = 0, odd_size = 0, ragged = 0, negative = 0,
        round_trips = 0;
    for (const auto &[pool, max_extent] :
         {std::make_pair(std::vector<Dim>{Dim::N, Dim::C, Dim::H, Dim::W}, 12),
          std::make_pair(std::vector<Dim>{Dim::M, Dim::K}, 40)}) {
        for (int i = 0; i < 1500; ++i) {
            Extents e;
            for (Dim d : pool) e[d] = rng.range(0, max_extent);
            const Layout layout = randomLayout(rng, pool);
            const BoundLayout bl(layout, e);

            // A bijection onto its lines and slots only when every dim
            // sits in the inter order or one intra factor covers it, and
            // no intra dim repeats.
            std::set<Dim> intra_dims;
            for (const auto &f : layout.intraFactors()) {
                odd_size += !isPow2(uint64_t(f.size));
                repeated += !intra_dims.insert(f.dim).second;
            }
            bool bijective =
                intra_dims.size() == layout.intraFactors().size();
            const std::vector<Dim> &o = layout.interOrder();
            for (Dim d : pool) {
                const bool inter = std::count(o.begin(), o.end(), d) > 0;
                absent += !inter && e[d] > 1;
                ragged += inter && e[d] % layout.intraSize(d) != 0;
                bijective &= inter || e[d] <= layout.intraSize(d);
            }

            for (int k = 0; k < 40; ++k) {
                // Coordinates past both ends too: the Horner form's
                // truncating / and % on negatives must carry over.
                Coord c;
                bool inside = true;
                for (Dim d : pool) {
                    const int64_t hi = std::max<int64_t>(e[d], 1);
                    c[d] = rng.chance(0.7) ? rng.range(0, hi - 1)
                                           : rng.range(-2 * hi, 2 * hi);
                    negative += c[d] < 0;
                    inside &= c[d] >= 0 && c[d] < hi;
                }
                const LineAddr got = bl.addrOf(c);
                const LineAddr want = hornerAddr(layout, e, c);
                ASSERT_EQ(got.line, want.line) << bl.toString();
                ASSERT_EQ(got.slot, want.slot) << bl.toString();
                if (!bijective || !inside) continue;
                ++round_trips;
                const Coord back = bl.coordAt(got);
                for (Dim d : pool) {
                    ASSERT_EQ(back[d], c[d]) << bl.toString();
                }
            }
        }
    }
    EXPECT_GT(absent, 0);
    EXPECT_GT(repeated, 0);
    EXPECT_GT(odd_size, 0);
    EXPECT_GT(ragged, 0);
    EXPECT_GT(negative, 0);
    EXPECT_GT(round_trips, 0);
}

// addrOf is a sum of per-dim addends, so summing dimAddr over the dims
// must give it back, line and slot apart: on the named layouts of these
// tests and both search spaces, and on random layouts (repeated and
// non-power-of-two intra factors, dims left out), at coordinates inside,
// past and below the extents.
TEST(BoundLayout, DimAddrSumsToAddrOf)
{
    std::vector<std::pair<Layout, std::vector<Dim>>> layouts;
    const std::vector<Dim> chw_dims{Dim::C, Dim::H, Dim::W};
    const std::vector<Dim> mk_dims{Dim::M, Dim::K};
    for (const char *name :
         {"CHW_W4H2C2", "HWC_C4", "HCW_W8", "HWC_C2W2", "WHC_C4", "CHW_W4"}) {
        layouts.emplace_back(Layout::parse(name), chw_dims);
    }
    for (const Layout &l : convLayoutSpace()) {
        layouts.emplace_back(l, chw_dims);
    }
    for (const Layout &l : gemmLayoutSpace()) {
        layouts.emplace_back(l, mk_dims);
    }
    Rng rng(26);
    const std::vector<Dim> nchw_dims{Dim::N, Dim::C, Dim::H, Dim::W};
    for (int i = 0; i < 300; ++i) {
        layouts.emplace_back(randomLayout(rng, nchw_dims), nchw_dims);
        layouts.emplace_back(randomLayout(rng, mk_dims), mk_dims);
    }

    int64_t negative = 0;
    for (const auto &[layout, pool] : layouts) {
        Extents e;
        for (Dim d : pool) e[d] = rng.range(1, 40);
        const BoundLayout bl(layout, e);
        for (int k = 0; k < 40; ++k) {
            Coord c;
            for (Dim d : pool) {
                c[d] = rng.range(-2 * e[d], 2 * e[d]);
                negative += c[d] < 0;
            }
            LineAddr sum;
            for (int d = 0; d < kNumDims; ++d) {
                const LineAddr part = bl.dimAddr(Dim(d), c[Dim(d)]);
                sum.line += part.line;
                sum.slot += part.slot;
            }
            const LineAddr want = bl.addrOf(c);
            ASSERT_EQ(sum.line, want.line) << bl.toString();
            ASSERT_EQ(sum.slot, want.slot) << bl.toString();
        }
    }
    EXPECT_GT(negative, 0);
}

// Line walks (loadIacts, readActivations) decode a line once with
// lineBase and add each slot's tabled offsets: that must be coordAt for
// every (line, slot) of the binding.
TEST(BoundLayout, LineWalkMatchesCoordAt)
{
    Rng rng(25);
    int64_t words = 0;
    for (const auto &[pool, max_extent] :
         {std::make_pair(std::vector<Dim>{Dim::N, Dim::C, Dim::H, Dim::W}, 12),
          std::make_pair(std::vector<Dim>{Dim::M, Dim::K}, 40)}) {
        for (int i = 0; i < 500; ++i) {
            Extents e;
            for (Dim d : pool) e[d] = rng.range(0, max_extent);
            const Layout layout = randomLayout(rng, pool);
            const BoundLayout bl(layout, e);
            ASSERT_EQ(bl.lineSize(), layout.lineSize()) << bl.toString();
            for (int64_t line = 0; line < std::min<int64_t>(bl.numLines(), 64);
                 ++line) {
                const Coord base = bl.lineBase(line);
                for (int64_t slot = 0; slot < bl.lineSize(); ++slot) {
                    const Coord want = bl.coordAt({line, slot});
                    const Coord &off = bl.slotOffset(slot);
                    for (int d = 0; d < kNumDims; ++d) {
                        ASSERT_EQ(base[Dim(d)] + off[Dim(d)], want[Dim(d)])
                            << bl.toString() << " line " << line << " slot "
                            << slot;
                    }
                    ++words;
                }
            }
        }
    }
    EXPECT_GT(words, 0);
}

} // namespace
} // namespace feather
