#pragma once

/**
 * @file
 * On-chip data layout descriptor, following the paper's terminology
 * (§II-B, Fig. 3):
 *
 *   "(inter-line dimension order)_(intra-line dimension order with sizes)"
 *
 * Example `CHW_W4H2C2`: lines are ordered by C (outermost), then H, then W
 * across the buffer; within a line, (4,2,2) elements of (W,H,C) are
 * flattened in the order W (outermost) -> H -> C (innermost slot).
 *
 * A Layout is an abstract pattern; binding it to a tensor's Extents yields a
 * BoundLayout that maps element coordinates to (line, slot) addresses in a
 * logical 2D buffer.
 */

#include <string>
#include <vector>

#include "layout/coords.hpp"
#include "workload/dims.hpp"

namespace feather {

/** One intra-line factor: @ref size consecutive elements of @ref dim. */
struct IntraFactor
{
    Dim dim;
    int64_t size;

    bool
    operator==(const IntraFactor &o) const
    {
        return dim == o.dim && size == o.size;
    }
};

/** Abstract layout pattern (not yet bound to tensor extents). */
class Layout
{
  public:
    Layout() = default;

    /**
     * @param inter_order inter-line dimension order, outermost first
     * @param intra       intra-line factors, outermost first
     */
    Layout(std::vector<Dim> inter_order, std::vector<IntraFactor> intra);

    /** Parse a layout string like "HWC_C4W8" or "HCW_W8". */
    static Layout parse(const std::string &text);

    const std::vector<Dim> &interOrder() const { return inter_order_; }
    const std::vector<IntraFactor> &intraFactors() const { return intra_; }

    /** Intra-line tile size of @p d (1 if d is not an intra factor). */
    int64_t intraSize(Dim d) const;

    /** Number of data words per line (product of intra factor sizes). */
    int64_t lineSize() const;

    /** Render back to the paper's string form. */
    std::string toString() const;

    bool
    operator==(const Layout &o) const
    {
        return inter_order_ == o.inter_order_ && intra_ == o.intra_;
    }

  private:
    std::vector<Dim> inter_order_; ///< outermost first
    std::vector<IntraFactor> intra_; ///< outermost first
};

/** Physical address of an element inside a logical 2D buffer. */
struct LineAddr
{
    int64_t line = 0; ///< buffer row index
    int64_t slot = 0; ///< word offset within the row

    bool
    operator==(const LineAddr &o) const
    {
        return line == o.line && slot == o.slot;
    }
    bool
    operator<(const LineAddr &o) const
    {
        return line != o.line ? line < o.line : slot < o.slot;
    }
};

/**
 * A Layout bound to concrete tensor extents: provides the coordinate ->
 * (line, slot) address map and its inverse.
 *
 * The map is the mixed-radix flatten of the paper's descriptor: the line
 * is the Horner form over the inter order of each dim's tile index
 * c[d] / intraSize(d), the slot the Horner form over the intra factors of
 * c[f.dim] % f.size. The constructor expands both into stride tables, so
 * addrOf is a sum of products with no per-call size lookups.
 */
class BoundLayout
{
  public:
    BoundLayout() = default;
    BoundLayout(Layout layout, Extents extents);

    const Layout &layout() const { return layout_; }
    const Extents &extents() const { return extents_; }

    int64_t lineSize() const { return line_size_; }
    int64_t numLines() const { return num_lines_; }

    /** Address of the element at @p c: the line sums each inter dim's
     *  tile times its line stride, the slot each intra factor's offset
     *  times its slot stride. Equal to the Horner form for every
     *  coordinate, negative ones included (truncating / and %). */
    LineAddr
    addrOf(const Coord &c) const
    {
        LineAddr addr;
        for (const Term &t : line_terms_) {
            addr.line += t.quot(c[t.dim]) * t.stride;
        }
        for (const Term &t : slot_terms_) {
            addr.slot += t.rem(c[t.dim]) * t.stride;
        }
        return addr;
    }

    /** The addends of addrOf that read dim @p d, at c[d] = @p x: addrOf(c)
     *  is the sum over dims of dimAddr(d, c[d]), line and slot apart.
     *  Lets a caller table each dim's part once and add the parts. */
    LineAddr
    dimAddr(Dim d, int64_t x) const
    {
        LineAddr addr;
        for (const Term &t : line_terms_) {
            if (t.dim == d) addr.line += t.quot(x) * t.stride;
        }
        for (const Term &t : slot_terms_) {
            if (t.dim == d) addr.slot += t.rem(x) * t.stride;
        }
        return addr;
    }

    /** Inverse map: coordinates stored at (line, slot). */
    Coord coordAt(const LineAddr &addr) const;

    /** The tile base of line @p line: coordAt({line, 0}) less slot 0's
     *  intra offsets, i.e. each inter dim's tile times its intra size. */
    Coord lineBase(int64_t line) const;

    /** The intra offsets of slot @p slot, tabled at binding: coordAt({line,
     *  slot}) is lineBase(line) plus these, dim by dim. For walks over
     *  whole lines, which decode each line once. */
    const Coord &
    slotOffset(int64_t slot) const
    {
        return slot_offsets_[size_t(slot)];
    }

    /** Total elements (product of bound extents). */
    int64_t numElems() const;

    std::string toString() const;

  private:
    /** Add the intra offsets of slot @p slot onto @p c. */
    void addSlotOffsets(int64_t slot, Coord &c) const;

    /** One addend of addrOf: c[dim] / div (an inter dim's tile) or
     *  c[dim] % div (an intra factor's offset), times stride. When div is
     *  a power of two, shift = log2(div) serves non-negative coordinates;
     *  a negative one takes the truncating / and %, as the Horner form. */
    struct Term
    {
        Dim dim;
        int64_t div;
        int64_t stride;
        int shift; ///< -1: div is not a power of two

        int64_t
        quot(int64_t x) const
        {
            return shift >= 0 && x >= 0 ? x >> shift : x / div;
        }
        int64_t
        rem(int64_t x) const
        {
            return shift >= 0 && x >= 0 ? x & (div - 1) : x % div;
        }
    };

    Layout layout_;
    Extents extents_;
    /** Tile count per inter dim (ceil(extent / intra size)). */
    std::vector<int64_t> tiles_per_dim_; ///< parallel to interOrder()
    int64_t num_lines_ = 0;
    int64_t line_size_ = 1; ///< layout_.lineSize()
    std::vector<Coord> slot_offsets_; ///< [line_size_], see slotOffset
    std::vector<Term> line_terms_; ///< one per inter dim
    std::vector<Term> slot_terms_; ///< one per intra factor
};

/**
 * The convolution iAct layout space the paper searches (§VI-A2 footnote 4).
 */
std::vector<Layout> convLayoutSpace();

/** The GEMM input layout space (MK_K32, MK_M32, MK_M4K8). */
std::vector<Layout> gemmLayoutSpace();

} // namespace feather
