#include "layout/layout.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/bits.hpp"
#include "common/log.hpp"

namespace feather {

Layout::Layout(std::vector<Dim> inter_order, std::vector<IntraFactor> intra)
    : inter_order_(std::move(inter_order)), intra_(std::move(intra))
{
    for (const auto &f : intra_) {
        FEATHER_CHECK(f.size >= 1, "intra factor must be >= 1");
    }
}

std::optional<Layout>
Layout::tryParse(const std::string &text, std::string *error)
{
    const auto fail = [&](const std::string &why) -> std::optional<Layout> {
        if (error) *error = strCat("layout '", text, "': ", why);
        return std::nullopt;
    };
    const size_t underscore = text.find('_');
    if (underscore == std::string::npos) {
        return fail("missing '_' separator");
    }
    // Each dim at most once in the inter order and once among the intra
    // factors: a repeat would alias lines or slots.
    bool in_inter[kNumDims] = {}, in_intra[kNumDims] = {};
    std::vector<Dim> inter;
    for (size_t i = 0; i < underscore; ++i) {
        const std::optional<Dim> d = parseDim(text[i]);
        if (!d) return fail(strCat("unknown dimension '", text[i], "'"));
        if (std::exchange(in_inter[size_t(*d)], true)) {
            return fail(strCat("dim ", feather::toString(*d),
                               " repeats in the inter order"));
        }
        inter.push_back(*d);
    }
    std::vector<IntraFactor> intra;
    int64_t line_size = 1;
    size_t i = underscore + 1;
    if (i >= text.size()) return fail("no intra factors");
    while (i < text.size()) {
        const std::optional<Dim> d = parseDim(text[i]);
        if (!d) return fail(strCat("unknown dimension '", text[i], "'"));
        if (std::exchange(in_intra[size_t(*d)], true)) {
            return fail(strCat("dim ", feather::toString(*d),
                               " repeats among the intra factors"));
        }
        ++i;
        if (i >= text.size() || !std::isdigit(uint8_t(text[i]))) {
            return fail("intra dim needs a size");
        }
        // Bounded digit by digit, so reading it cannot overflow.
        int64_t size = 0;
        for (; i < text.size() && std::isdigit(uint8_t(text[i])); ++i) {
            size = size * 10 + (text[i] - '0');
            if (size > kMaxLineSize / line_size) {
                return fail(strCat("line size exceeds ", kMaxLineSize,
                                   " words"));
            }
        }
        if (size < 1) return fail("intra size must be >= 1");
        line_size *= size;
        intra.push_back({*d, size});
    }
    return Layout(std::move(inter), std::move(intra));
}

Layout
Layout::parse(const std::string &text)
{
    std::string error;
    std::optional<Layout> layout = tryParse(text, &error);
    if (!layout) panic(error);
    return std::move(*layout);
}

int64_t
Layout::intraSize(Dim d) const
{
    for (const auto &f : intra_) {
        if (f.dim == d) return f.size;
    }
    return 1;
}

int64_t
Layout::lineSize() const
{
    int64_t n = 1;
    for (const auto &f : intra_) {
        n *= f.size;
    }
    return n;
}

std::string
Layout::toString() const
{
    std::string s;
    for (Dim d : inter_order_) {
        s += dimName(d);
    }
    s += '_';
    for (const auto &f : intra_) {
        s += dimName(f.dim);
        s += std::to_string(f.size);
    }
    return s;
}

BoundLayout::BoundLayout(Layout layout, Extents extents)
    : layout_(std::move(layout)), extents_(extents)
{
    const auto term = [](Dim d, int64_t div, int64_t stride) {
        return Term{d, div, stride,
                    isPow2(uint64_t(div)) ? int(log2Exact(uint64_t(div)))
                                          : -1};
    };
    // Expand both Horner forms, innermost first, into (dim, divisor,
    // stride) terms: a stride is the product of the radices inside it.
    const auto &order = layout_.interOrder();
    tiles_per_dim_.resize(order.size());
    line_terms_.resize(order.size());
    num_lines_ = 1;
    for (size_t i = order.size(); i-- > 0;) {
        const Dim d = order[i];
        const int64_t extent = std::max<int64_t>(extents_[d], 1);
        const int64_t size = layout_.intraSize(d);
        tiles_per_dim_[i] = ceilDiv(extent, size);
        line_terms_[i] = term(d, size, num_lines_);
        num_lines_ *= tiles_per_dim_[i];
    }
    const auto &intra = layout_.intraFactors();
    slot_terms_.resize(intra.size());
    int64_t slot_stride = 1;
    for (size_t i = intra.size(); i-- > 0;) {
        slot_terms_[i] = term(intra[i].dim, intra[i].size, slot_stride);
        slot_stride *= intra[i].size;
    }
    line_size_ = slot_stride;
    slot_offsets_.resize(size_t(line_size_));
    for (int64_t slot = 0; slot < line_size_; ++slot) {
        addSlotOffsets(slot, slot_offsets_[size_t(slot)]);
    }
}

Coord
BoundLayout::lineBase(int64_t line) const
{
    Coord c;
    // Unflatten the line index into per-dim tile coordinates.
    const auto &order = layout_.interOrder();
    for (size_t i = order.size(); i-- > 0;) {
        const int64_t tiles = tiles_per_dim_[i];
        const int64_t tile = line % tiles;
        line /= tiles;
        c[order[i]] = tile * layout_.intraSize(order[i]);
    }
    return c;
}

void
BoundLayout::addSlotOffsets(int64_t slot, Coord &c) const
{
    // Unflatten the slot into intra offsets and add them on.
    const auto &intra = layout_.intraFactors();
    for (size_t i = intra.size(); i-- > 0;) {
        const int64_t off = slot % intra[i].size;
        slot /= intra[i].size;
        c[intra[i].dim] += off;
    }
}

Coord
BoundLayout::coordAt(const LineAddr &addr) const
{
    Coord c = lineBase(addr.line);
    addSlotOffsets(addr.slot, c);
    return c;
}

std::string
BoundLayout::toString() const
{
    return strCat(layout_.toString(), " [", numLines(), " lines x ",
                  lineSize(), " words]");
}

int64_t
bankWords(const Layout &layout, const Extents &extents, int64_t banks)
{
    int64_t words = ceilDiv(layout.lineSize(), banks);
    for (Dim d : layout.interOrder()) {
        const int64_t tiles =
            ceilDiv(std::max<int64_t>(extents[d], 1), layout.intraSize(d));
        if (words > INT64_MAX / tiles) return INT64_MAX;
        words *= tiles;
    }
    return words;
}

std::vector<Layout>
convLayoutSpace()
{
    static const char *names[] = {
        "HWC_C32", "HWC_W32", "HWC_H32", "HWC_C4W8",
        "HWC_C4H8", "HWC_W4H8", "HWC_C4W4H2",
    };
    std::vector<Layout> out;
    for (const char *n : names) {
        out.push_back(Layout::parse(n));
    }
    return out;
}

std::vector<Layout>
gemmLayoutSpace()
{
    static const char *names[] = {"MK_K32", "MK_M32", "MK_M4K8"};
    std::vector<Layout> out;
    for (const char *n : names) {
        out.push_back(Layout::parse(n));
    }
    return out;
}

} // namespace feather
