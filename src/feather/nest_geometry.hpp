#pragma once

/**
 * @file
 * The loop-nest geometry of one layer under one NEST mapping (§III–IV,
 * Fig. 7/8): which dims are unrolled over columns, rows and local slots,
 * which temporal steps walk the rest, which columns reduce together through
 * BIRRD, and which StaB bank each reduction group's sum lands in.
 *
 * Everything here is data-independent, and so is the one body of a
 * temporal step (NestGeometry::step): per row the output pass, the iAct
 * gather with its per-cycle StaB dedup and dual-port feed, the MACs, the
 * BIRRD wave split, switch hops and OB destinations, then the step's
 * cycles and stalls. When one top-to-bottom iAct stream serves every row
 * (row_variants == 1), row 0 records its gather and each later row with
 * the same active columns reuses it: one sink.reuse call stands for the
 * row's read and iact calls, which would repeat row 0's, and the row is
 * charged row 0's reads. Beside the step sit the weight-tile walk
 * (weightTile) and the layer's pipeline-fill term (finish). Both engine
 * tiers run these bodies; data movement plugs in through a template
 * sink, so a sink of no-op hooks costs nothing. The cycle simulator
 * (FeatherAccelerator::run) runs every temporal step with a sink that
 * reads StaB, drives NEST and accumulates and requantizes in the OB; its
 * reuse moves no data and only counts (and traces) the reads. The
 * analytic model
 * (analyticLayerStats) runs only the middle step, with a sink that
 * collects OB destinations, and scales it by the step count.
 *
 * Coordinates: for dim d, PE (row r, column c, local slot l) at temporal
 * step base b holds
 *     b[d] + local[l][d] + L[d] * (col[c][d] + C[d] * row[r][d])
 * where L and C are the local and column degrees of d.
 *
 * Compiled addressing: the gather and the output pass do not evaluate
 * iactAt/oactAt and BoundLayout::addrOf per PE (those stay as the
 * reference the tests compare against). Each tensor axis a layout
 * addresses (iAct conv C, H = P*stride + R - pad, W = Q*stride + S - pad,
 * GEMM M, K; oAct conv C, H, W, GEMM M, K) is an Axis. A PE's offset on an
 * axis is the sum of a column, a local and a row part, so its key into the
 * axis is the sum of three keys tabled once per layer. Per step, one table
 * per axis holds each key's bounds check and dimAddr's line and slot
 * parts; it is rebuilt only when the axis's base coordinates move (in the
 * inner loop, usually one axis). A PE's validity is the AND of its three
 * entries and its address their sum. Since a layout is one-to-one on
 * in-bound coordinates, two columns read one StaB word in a cycle exactly
 * when their column offsets agree on every iAct axis: col_class numbers
 * those offset triples, and the gather's per-cycle dedup is a class ->
 * read-slot lookup. The output pass computes one address per group.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/bits.hpp"
#include "dataflow/access_pattern.hpp"
#include "feather/config.hpp"
#include "layout/layout.hpp"
#include "nest/nest_mapping.hpp"
#include "noc/router.hpp"
#include "workload/shapes.hpp"

namespace feather {

/**
 * The mapping checks both engine tiers require: @p mapping validates
 * against the layer on a cfg.aw x cfg.ah array, its local dims are
 * reduction dims, and its local tile fits the PE register file. Panics
 * on a violation.
 */
void checkNestMapping(const LayerSpec &layer, const NestMapping &mapping,
                      const FeatherConfig &cfg);

/** Feed cycles of one stream slot given per-bank distinct reads: dual-port
 *  banks serve two reads a cycle, and a slot takes at least one cycle. */
inline int64_t
dualPortFeed(const int64_t *bank_reads, int aw)
{
    int64_t worst = 1;
    for (int b = 0; b < aw; ++b) {
        worst = std::max(worst, (bank_reads[b] + 1) / 2);
    }
    return worst;
}

/** Loop-nest geometry of (layer, mapping); see the file comment. */
struct NestGeometry
{
    /** One NEST column: its per-dim spatial index and reduction group. */
    struct Column
    {
        Coord idx;
        int group = -1;
    };

    NestGeometry(const LayerSpec &layer, const NestMapping &mapping);

    bool is_gemm;
    bool depthwise;
    int64_t stride;
    int64_t pad;
    Extents ext; ///< full loop extents (conv incl. P/Q, or GEMM M/N/K)

    /** Temporal dims, outer -> inner: weight-affecting dims outermost so
     *  weights stay stationary across the inner output sweep; reduction
     *  tiles between them so OB entries complete before the next weight
     *  tile arrives. */
    std::vector<Dim> dims_order;
    /** The weight-affecting prefix of dims_order: the weight tile changes
     *  exactly when one of these steps. */
    std::vector<Dim> weight_dims;
    DimMap unroll; ///< per-dim product of local, column and row degrees

    LoopNest loops;        ///< temporal steps over dims_order
    int64_t total_steps;   ///< loops.totalIters()
    int64_t weight_steps;  ///< distinct weight tiles (reload events)
    /** Partial sums each output receives: reduction steps times the
     *  reduction copies unrolled over rows (in-situ OB reduction). */
    int64_t expected_contribs;

    int64_t t1;
    int64_t cols_used;
    int64_t rows_used;
    DimMap local_deg;
    DimMap col_deg;

    /** Non-reduced column dims: columns sharing all of them reduce
     *  together through BIRRD. */
    std::vector<ParallelDim> group_dims;
    int64_t num_groups;
    std::vector<Column> cols;   ///< [cols_used]
    std::vector<Coord> rows;    ///< [rows_used] per-dim row index
    std::vector<Coord> locals;  ///< [t1] per-dim local-slot index

    /** Rows the iAct feed pays for: rows_used when iActs depend on the
     *  row index, else 1 (one top-to-bottom stream serves every row). */
    int64_t row_variants;

    /**
     * One tensor axis a layout addresses: x = a, or (windowed) x = a *
     * stride + k - pad, with a and k loop dims. A PE's table key on the
     * axis is off(a) * uk + off(k) (off(k) = 0 unless windowed), off being
     * its offset from the step base; each off splits into a column, a
     * local and a row part below unroll, so the key is the sum of the
     * three parts' keys. A dead axis (GEMM's third) is a constant 0.
     */
    struct Axis
    {
        Dim x = Dim::N; ///< the tensor dim, in the layout's space
        Dim a = Dim::N;
        Dim k = Dim::N;
        bool live = false;
        bool windowed = false;
        int64_t ua = 1; ///< unroll[a]
        int64_t uk = 1; ///< unroll[k] when windowed, else 1
    };
    static constexpr int kAxes = 3;
    using Axes = std::array<Axis, kAxes>;
    /** One column's, local slot's or row's key part on each axis. */
    using AxisKeys = std::array<int32_t, kAxes>;

    Axes iact_axes; ///< iactAt's: conv C, H, W; GEMM M, K
    Axes oact_axes; ///< oactAt's: conv C, H, W; GEMM M, K
    std::vector<AxisKeys> iact_col_keys;   ///< [cols_used]
    std::vector<AxisKeys> iact_local_keys; ///< [t1]
    std::vector<AxisKeys> iact_row_keys;   ///< [rows_used]
    std::vector<AxisKeys> oact_col_keys;   ///< [cols_used]
    std::vector<AxisKeys> oact_row_keys;   ///< [rows_used]
    /** [cols_used] dense id of the column's iAct offsets on the three
     *  axes, numbered in column order: columns of one class read the same
     *  iAct in every cycle, other columns never do. */
    std::vector<int32_t> col_class;
    int64_t num_classes;

    /** Base coordinate of the temporal step @p step. */
    Coord
    base(const Coord &step) const
    {
        Coord b;
        for (Dim d : dims_order) b[d] = step[d] * unroll[d];
        return b;
    }

    /** Dim @p d of PE (r, c, l) at step base @p b. */
    int64_t
    at(const Coord &b, Dim d, int64_t r, int64_t c, int64_t l) const
    {
        return b[d] + locals[size_t(l)][d] +
               local_deg[d] * (cols[size_t(c)].idx[d] +
                               col_deg[d] * rows[size_t(r)][d]);
    }

    /** Weight coordinate (GEMM K,N; conv M,C,R,S, M = 0 when depthwise)
     *  held by PE slot (r, c, l); false when it is out of bounds. */
    bool
    weightAt(const Coord &b, int64_t r, int64_t c, int64_t l,
             Coord &w) const
    {
        if (is_gemm) {
            w[Dim::K] = at(b, Dim::K, r, c, l);
            w[Dim::N] = at(b, Dim::N, r, c, l);
            return w[Dim::K] < ext[Dim::K] && w[Dim::N] < ext[Dim::N];
        }
        w[Dim::M] = at(b, Dim::M, r, c, l);
        w[Dim::C] = at(b, Dim::C, r, c, l);
        w[Dim::R] = at(b, Dim::R, r, c, l);
        w[Dim::S] = at(b, Dim::S, r, c, l);
        return w[Dim::M] < (depthwise ? 1 : ext[Dim::M]) &&
               w[Dim::C] < ext[Dim::C] && w[Dim::R] < ext[Dim::R] &&
               w[Dim::S] < ext[Dim::S];
    }

    /** Output of column @p c in row @p r, in next-layer iAct space (GEMM
     *  (M,N) -> (M,K); conv (M|C,P,Q) -> (C,H,W), C when depthwise) — the
     *  space oAct layouts address (RIR). False when the column is dead. */
    bool
    oactAt(const Coord &b, int64_t r, int64_t c, Coord &o) const
    {
        if (is_gemm) {
            o[Dim::M] = at(b, Dim::M, r, c, 0);
            o[Dim::K] = at(b, Dim::N, r, c, 0);
            return o[Dim::M] < ext[Dim::M] && o[Dim::K] < ext[Dim::N];
        }
        const Dim out_ch = depthwise ? Dim::C : Dim::M;
        o[Dim::C] = at(b, out_ch, r, c, 0);
        o[Dim::H] = at(b, Dim::P, r, c, 0);
        o[Dim::W] = at(b, Dim::Q, r, c, 0);
        return o[Dim::C] < ext[out_ch] && o[Dim::H] < ext[Dim::P] &&
               o[Dim::W] < ext[Dim::Q];
    }

    /** iAct read by PE slot (r, c, l) — conv (C, H, W) with H = P*stride +
     *  R - pad, GEMM (M, K); false when the slot reads nothing (padding or
     *  out of bounds). */
    bool
    iactAt(const Coord &b, int64_t r, int64_t c, int64_t l, Coord &i) const
    {
        if (is_gemm) {
            i[Dim::M] = at(b, Dim::M, r, c, l);
            i[Dim::K] = at(b, Dim::K, r, c, l);
            return i[Dim::M] < ext[Dim::M] && i[Dim::K] < ext[Dim::K];
        }
        const int64_t p = at(b, Dim::P, r, c, l);
        const int64_t q = at(b, Dim::Q, r, c, l);
        const int64_t rr = at(b, Dim::R, r, c, l);
        const int64_t ss = at(b, Dim::S, r, c, l);
        i[Dim::C] = at(b, Dim::C, r, c, l);
        i[Dim::H] = p * stride + rr - pad;
        i[Dim::W] = q * stride + ss - pad;
        return i[Dim::C] < ext[Dim::C] && p < ext[Dim::P] &&
               q < ext[Dim::Q] && rr < ext[Dim::R] && ss < ext[Dim::S] &&
               i[Dim::H] >= 0 && i[Dim::H] < ext[Dim::H] &&
               i[Dim::W] >= 0 && i[Dim::W] < ext[Dim::W];
    }

    /** Per-row scratch of step() and its pieces below, carved from an
     *  arena in one fixed order. */
    struct StepScratch
    {
        StepScratch(const NestGeometry &geo, int aw, Arena &arena);

        int aw;
        uint8_t *col_active;     ///< [aw]
        int64_t *group_line;     ///< [num_groups]
        int64_t *group_bank;     ///< [num_groups]
        uint8_t *group_live;     ///< [num_groups]
        int64_t *bank_reads;     ///< [aw] distinct reads per bank, per cycle
        /** [cols_used] per cycle: the read slot of each column class, -1
         *  before its first read (entries [0, num_classes) are used). */
        int64_t *class_slot;
        int16_t *read_val;       ///< [cols_used] a data sink's read values
        int *wave_of_group;      ///< [num_groups], -1 for dead groups
        /** [num_groups x aw]: the greedy split never opens more waves
         *  than live groups. */
        uint8_t *wave_bank_used;
        int *dense_id;           ///< [num_groups]
        int *dense_dest;         ///< [num_groups]
        std::string wave_key;

        /** One first read of row 0's gather: the StaB word it fetches. */
        struct GatherRead
        {
            int64_t bank;
            int64_t addr;
        };
        /** Row 0's gather, kept for reuse when row_variants == 1 and
         *  rows_used > 1 (else empty): its active columns [cols_used] and
         *  the words of its first reads in call order [t1 * cols_used],
         *  of which the step's first shared_reads are live. On the heap,
         *  not the arena, whose peak is a reported counter. */
        std::vector<uint8_t> gather_active;
        std::vector<GatherRead> gather_read;

        /** One key of an axis table: whether its coordinate is in bounds
         *  (the axis's share of iactAt's or oactAt's check), and if so
         *  dimAddr's line and slot parts. */
        struct AxisEntry
        {
            int64_t line;
            int64_t slot;
            bool valid;
        };
        /** An axis's entries [ua * uk] for the layout and base coordinates
         *  b[a], b[k] it was built at (layout null: never built). */
        struct AxisTable
        {
            std::vector<AxisEntry> entries;
            const BoundLayout *layout = nullptr;
            int64_t base_a = 0;
            int64_t base_k = 0;
        };
        /** Heap, not arena: the arena blocks keep their order and size. */
        std::array<AxisTable, kAxes> iact_tables, oact_tables;
    };

    /**
     * Bring @p tables up to the step at base @p b under @p layout: each
     * axis of @p axes whose base coordinates or layout changed since its
     * last build is rebuilt, the others are kept.
     */
    void refreshAxes(const Axes &axes, const Coord &b,
                     const BoundLayout &layout,
                     std::array<StepScratch::AxisTable, kAxes> &tables) const;

    /**
     * Column liveness and group destinations of row @p r at step base
     * @p b: col_active[c] for c < aw, and for each live group (the first
     * live column of the group decides) the StaB bank and line its sum is
     * written to under @p out (bound in next-layer iAct space).
     */
    void rowOutputs(const Coord &b, int64_t r, const BoundLayout &out,
                    StepScratch &s) const;

    /**
     * Greedy wave split of rowOutputs' live groups: each joins the first
     * wave whose StaB bank is still free, so every wave writes each bank
     * at most once. Fills wave_of_group. @return the number of waves.
     */
    int splitWaves(StepScratch &s) const;

    /**
     * Fill @p req with the BIRRD request of wave @p w: each active column
     * of the wave feeds its group, renumbered densely in column order,
     * and each group's sum goes to its bank.
     * @return the number of groups in the wave (0: nothing to route).
     */
    int waveRequest(int w, StepScratch &s, RouteRequest &req) const;

    /**
     * BIRRD switch hops of wave @p w, replayed from the process-wide
     * CompiledWaves table (noc/router.hpp) through the calling thread's
     * front cache. The wave's key (wave_key) is aw bytes, byte c the
     * bank + 1 of column c's group when c is an active column of the
     * wave, else 0. A key no thread has compiled yet is compiled here
     * from waveRequest.
     */
    int64_t waveHops(int w, StepScratch &s) const;

    /**
     * The body of the temporal step at base @p b, with iActs read from
     * StaB under @p in and oActs written under @p out (next-layer iAct
     * space). Per row: the output pass (rowOutputs); the iAct gather,
     * where columns requesting the same word in the same cycle share one
     * bank access (the point-to-point distribution broadcasts it), priced
     * by dualPortFeed for the first row_variants rows; the emission; the
     * wave split, one bus slot per wave (at least one), and each wave's
     * switch hops and OB destinations. In hardware order, @p sink gets
     * read(s, bank, addr) for the cycle's first request of each StaB word
     * (its value belongs in StepScratch::read_val[s]), iact(c, l, s) for
     * each active column c at local slot l (s < 0: padding, a zero),
     * emit(r, col_active) once row r is gathered, and accumulate(g, bank,
     * line) for each live group's sum into its OB entry.
     *
     * When row_variants == 1 the iActs do not depend on the row, so row 0
     * records its gather (StepScratch::gather_*) and each later row whose
     * col_active equals row 0's reuses it: instead of the read and iact
     * calls, which would repeat row 0's call for call, the sink gets one
     * reuse(first_reads, n) with the n words of row 0's read calls in
     * order, and the row is charged those n reads. A data sink keeps
     * row 0's iActs for the row: they do not depend on the row, and an M
     * tail row gathered in between rewrites only equal values. Rows with
     * other active columns (an M tail) gather in full.
     *
     * Adds @p times such steps to @p stats: max(feed, bus, t1) cycles
     * each, read stalls for feed beyond t1, write stalls for bus slots
     * beyond one per row, and the step's access counts.
     * @return the cycles of one step.
     */
    template <class Sink>
    int64_t
    step(const Coord &b, const BoundLayout &in, const BoundLayout &out,
         const FeatherConfig &cfg, StepScratch &s, Sink &sink,
         LayerStats &stats, int64_t times = 1) const
    {
        int64_t feed = 0, bus = 0, macs = 0, reads = 0, accumulates = 0;
        int64_t hops = 0;
        // Locals, not members: the scratch stores below may alias members.
        const int aw = cfg.aw;
        const int64_t cols = cols_used, slots = t1;
        const int64_t in_wpl = ceilDiv(in.lineSize(), int64_t(aw));
        const size_t classes = size_t(num_classes);
        const uint8_t *col_active = s.col_active;
        int64_t *bank_reads = s.bank_reads, *class_slot = s.class_slot;
        const bool shared = !s.gather_active.empty();
        int64_t shared_reads = 0; // row 0's distinct reads
        StepScratch::GatherRead *const rec_read = s.gather_read.data();
        const AxisKeys *col_keys = iact_col_keys.data();
        const int32_t *col_cls = col_class.data();
        refreshAxes(iact_axes, b, in, s.iact_tables);
        const StepScratch::AxisEntry *tab0 = s.iact_tables[0].entries.data(),
                                     *tab1 = s.iact_tables[1].entries.data(),
                                     *tab2 = s.iact_tables[2].entries.data();
        for (int64_t r = 0; r < rows_used; ++r) {
            rowOutputs(b, r, out, s);

            if (shared && r > 0 &&
                std::equal(col_active, col_active + cols,
                           s.gather_active.begin())) {
                sink.reuse(rec_read, shared_reads);
                reads += shared_reads;
            } else {
                const bool record = shared && r == 0;
                const AxisKeys row_key = iact_row_keys[size_t(r)];
                int64_t row_feed = 0;
                for (int64_t l = 0; l < slots; ++l) {
                    std::fill_n(bank_reads, size_t(aw), int64_t(0));
                    std::fill_n(class_slot, classes, int64_t(-1));
                    const AxisKeys &lk = iact_local_keys[size_t(l)];
                    const int64_t k0 = lk[0] + row_key[0],
                                  k1 = lk[1] + row_key[1],
                                  k2 = lk[2] + row_key[2];
                    int64_t num_read = 0;
                    for (int64_t c = 0; c < cols; ++c) {
                        if (!col_active[c]) continue;
                        const AxisKeys &ck = col_keys[c];
                        const StepScratch::AxisEntry &e0 = tab0[ck[0] + k0],
                                                     &e1 = tab1[ck[1] + k1],
                                                     &e2 = tab2[ck[2] + k2];
                        int64_t slot = -1;
                        if (e0.valid & e1.valid & e2.valid) {
                            int64_t &cs = class_slot[col_cls[c]];
                            if (cs < 0) {
                                const int64_t line =
                                    e0.line + e1.line + e2.line;
                                const int64_t word =
                                    e0.slot + e1.slot + e2.slot;
                                const int64_t bank = word % aw;
                                const int64_t addr =
                                    line * in_wpl + word / aw;
                                cs = num_read++;
                                ++bank_reads[bank];
                                if (record) {
                                    rec_read[shared_reads + cs] = {bank,
                                                                   addr};
                                }
                                sink.read(cs, bank, addr);
                            }
                            slot = cs;
                        }
                        sink.iact(c, l, slot);
                    }
                    reads += num_read;
                    if (record) shared_reads += num_read;
                    row_feed += dualPortFeed(bank_reads, aw);
                }
                if (record) {
                    std::copy_n(col_active, cols, s.gather_active.begin());
                }
                if (r < row_variants) feed += row_feed;
            }

            sink.emit(r, s.col_active);
            macs += t1 * std::count(s.col_active, s.col_active + cols_used,
                                    uint8_t(1));

            const int num_waves = splitWaves(s);
            bus += std::max(num_waves, 1);
            for (int w = 0; w < num_waves; ++w) {
                hops += waveHops(w, s);
                for (int64_t g = 0; g < num_groups; ++g) {
                    if (!s.group_live[g] || s.wave_of_group[g] != w) continue;
                    ++accumulates;
                    sink.accumulate(g, s.group_bank[g], s.group_line[g]);
                }
            }
        }
        const int64_t cycles = std::max({feed, bus, t1});
        stats.compute_cycles += times * cycles;
        stats.read_stall_cycles += times * std::max<int64_t>(0, feed - t1);
        stats.write_stall_cycles +=
            times * std::max<int64_t>(0, bus - rows_used);
        stats.macs += times * macs;
        stats.stab_reads += times * reads;
        stats.ob_accumulates += times * accumulates;
        stats.birrd_switch_hops += times * hops;
        return cycles;
    }

    /**
     * Load the weight tile of the step at base @p b, @p times over: hand
     * each PE slot, row-, column-, then local-major, to sink.weight(r, c,
     * l, w) (w null when out of bounds), and add to @p stats one StrB
     * read and DRAM word per in-bounds weight, and the reload event.
     */
    template <class Sink>
    void
    weightTile(const Coord &b, Sink &sink, LayerStats &stats,
               int64_t times = 1) const
    {
        int64_t loaded = 0;
        for (int64_t r = 0; r < rows_used; ++r) {
            for (int64_t c = 0; c < cols_used; ++c) {
                for (int64_t l = 0; l < t1; ++l) {
                    Coord w;
                    const bool in = weightAt(b, r, c, l, w);
                    loaded += in;
                    sink.weight(r, c, l, in ? &w : nullptr);
                }
            }
        }
        stats.strb_reads += times * loaded;
        stats.dram_words += times * loaded;
        stats.weight_reload_events += times;
    }

    /** Cycles of the AH * t1 weight-tile preload that the shadow
     *  ping-pong registers cannot hide behind @p hidden cycles of compute
     *  since the previous load (0 before the first load). */
    int64_t
    exposedLoad(const FeatherConfig &cfg, int64_t hidden) const
    {
        return std::max<int64_t>(0, int64_t(cfg.ah) * t1 - hidden);
    }

    /**
     * Set the layer terms both tiers share: the AH * t1 preload of one
     * weight tile, the one-off pipeline fill (AH row stagger, one cycle
     * per BIRRD stage, two OB/QM stages) and the total cycles.
     */
    void finish(LayerStats &stats, const FeatherConfig &cfg) const;
};

} // namespace feather
