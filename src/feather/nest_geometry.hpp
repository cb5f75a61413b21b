#pragma once

/**
 * @file
 * The loop-nest geometry of one layer under one NEST mapping (§III–IV,
 * Fig. 7/8): which dims are unrolled over columns, rows and local slots,
 * which temporal steps walk the rest, which columns reduce together through
 * BIRRD, and which StaB bank each reduction group's sum lands in.
 *
 * Everything here is data-independent, and so is the one body of a
 * temporal step (NestGeometry::step): per row the iAct gather with its
 * per-cycle StaB dedup and dual-port feed, the MACs, and the row's output
 * control (active columns, BIRRD wave split, switch hops and OB
 * destinations), then the step's cycles and stalls. The control is
 * compiled, not recomputed, so a step does only data work: reading StaB
 * at tabled lines, the MACs and the OB accumulation. The output control
 * depends only on the row and on the step's output-table shape (the
 * (valid, slot) content of its oAct axis tables, below), so planOutputs
 * compiles one output plan per shape and every step of that shape
 * replays it, adding only the tables' line parts to find each OB line.
 * The gather likewise depends only on the row, the output plan's active
 * columns and the (valid, slot) content of the iAct axis tables, so
 * planInputs keys an input plan by (iAct shape ids, output plan id): each
 * gathering row's per-cycle reads (table entries, bank, word / aw), each
 * active column's read slot and the row's summed dualPortFeed. A step of
 * a known key replays it and computes only each read's line. Two kinds of
 * step walk the gather from the tables instead, with the code that
 * compiles plans but recording nothing: a run's first step (the analytic
 * probe's only one, which would never replay a plan) and a step whose key
 * finds no room left in the run's input-plan budget (kInputPlanBytes, a
 * constant). When one top-to-bottom iAct stream serves
 * every row (row_variants == 1), row 0 records its gather and each later
 * row with the same active columns reuses it: one sink.reuse call stands
 * for the row's read and iact calls, which would repeat row 0's, and the
 * row is charged row 0's reads. Beside the step sit the weight-tile walk
 * (weightTile) and the layer's pipeline-fill term (finish). Both engine
 * tiers run these bodies; data movement plugs in through a template
 * sink, so a sink of no-op hooks costs nothing. The cycle simulator
 * (FeatherAccelerator::run) runs every temporal step with a sink that
 * reads StaB, drives NEST and accumulates and requantizes in the OB; its
 * reuse moves no data and only traces the reads. cycleLayerStats runs
 * the same loop with a sink that keeps only the OB countdown, so it
 * reproduces the cycle tier's counters without data. The analytic model
 * (analyticLayerStats) runs only the middle step, with a sink that
 * collects OB destinations, and scales it by the step count.
 * Everything a step writes lives in a StepScratch of vectors the caller
 * owns: reset() sizes them once per run, and a caller that keeps the
 * scratch (the accelerator keeps one, the analytic tier one per thread)
 * reuses their capacity, so the step loop allocates nothing once warm.
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
 * A word's bank and its word within the line are its low and high bits
 * (StepScratch::aw_shift), as AW is a power of two.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

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

    /** Per-run scratch of step() and its pieces below, sized by reset():
     *  the axis tables, the output and input plans compiled so far, and
     *  the buffers the walks and plan compiles fill. A caller that keeps
     *  the scratch reuses every buffer's capacity from run to run. */
    struct StepScratch
    {
        StepScratch() = default;
        StepScratch(const NestGeometry &geo, int aw) { reset(geo, aw); }

        /** Start a run of @p geo on an @p aw-column array (aw a power of
         *  two): size every buffer, forgetting every axis table and every
         *  output and input plan of the last run. */
        void reset(const NestGeometry &geo, int aw);

        /** Bytes of the flat per-row buffers, col_active ... dense_dest,
         *  at the run's sizes (part of LayerStats::arena_peak_bytes). */
        int64_t flatBytes() const;

        int aw;
        /** log2(aw): a StaB word w lives in bank w & (aw - 1) at word
         *  w >> aw_shift of its line (reset checks aw is a power of 2). */
        int aw_shift;
        std::vector<uint8_t> col_active;  ///< [aw]
        std::vector<int64_t> group_line;  ///< [num_groups]
        std::vector<int64_t> group_bank;  ///< [num_groups]
        std::vector<uint8_t> group_live;  ///< [num_groups]
        /** [aw] distinct reads per bank, per cycle. */
        std::vector<int64_t> bank_reads;
        /** [cols_used] per cycle: the read slot of each column class, -1
         *  before its first read (entries [0, num_classes) are used). */
        std::vector<int64_t> class_slot;
        std::vector<int16_t> read_val; ///< [cols_used] a data sink's reads
        std::vector<int> wave_of_group; ///< [num_groups], -1: dead group
        /** [num_groups x aw]: the greedy split never opens more waves
         *  than live groups. */
        std::vector<uint8_t> wave_bank_used;
        std::vector<int> dense_id;   ///< [num_groups]
        std::vector<int> dense_dest; ///< [num_groups]
        std::string wave_key;

        /** One first read of row 0's gather: the StaB word it fetches. */
        struct GatherRead
        {
            int64_t bank;
            int64_t addr;
        };
        /** Row 0's first reads in call order [t1 * cols_used], of which
         *  the step's first shared_reads are live; kept for reuse when
         *  row_variants == 1 and rows_used > 1, else empty. */
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
            /** The interned id of the entries' (valid, slot) content
             *  (OutputPlans::shapes for oAct tables, InputPlans::shapes
             *  for iAct ones), -1 until interned. */
            int32_t shape = -1;
        };
        /** The interned (valid, slot) contents of one axis's tables: id
         *  i is codes[i * n, (i + 1) * n) for tables of n entries, each
         *  encoded as 2 * slot + 1 when valid, else 0, beside its FNV
         *  hash. */
        struct ShapeSet
        {
            std::vector<int64_t> codes;
            std::vector<uint64_t> hashes;

            /** The id of @p entries' content; new content is interned
             *  when @p insert, else its id is -1. */
            int32_t intern(const std::vector<AxisEntry> &entries,
                           bool insert);
            int64_t bytes() const;
            void clear();
        };
        std::array<AxisTable, kAxes> iact_tables, oact_tables;

        /** A live group's OB word as rowOutputs finds it at the group's
         *  first live column: that column's oAct table entries (its row
         *  key included) and its word / aw. The group's OB line is the
         *  three entries' line parts, summed, times out_wpl plus word_hi. */
        struct OutputDest
        {
            std::array<int32_t, kAxes> entry;
            int32_t word_hi;
        };
        std::vector<OutputDest> group_dest; ///< [num_groups]

        /** One sum a compiled row accumulates into the OB. */
        struct Accumulate
        {
            int32_t group;
            int32_t bank;
            OutputDest dest;
        };
        /** One row of an output plan: what step() does after the row's
         *  gather. */
        struct RowPlan
        {
            int64_t hops;       ///< BIRRD switch hops over its waves
            int32_t active;     ///< active columns
            int32_t bus;        ///< bus slots: max(waves, 1)
            uint32_t acc_begin; ///< its accumulates, accs[acc_begin,
            uint32_t acc_end;   ///< acc_end), in wave-then-group order
            bool reuse;         ///< r > 0 with row 0's col_active
        };
        /**
         * The run's output plans (see step()), one per distinct output-
         * table shape: the (valid, slot) content of the three oAct axis
         * tables, which decides every row's col_active, group banks,
         * waves and hops. Only the tables' line parts move between steps
         * of one shape. Plan p is rows[p * rows_used, ...) and, aw bytes
         * per row, active[p * rows_used * aw, ...), keyed by keys[p], its
         * tables' interned ids. The run's first plan is keyed by -1s and
         * never found again, so a one-step run interns nothing.
         */
        struct OutputPlans
        {
            std::vector<RowPlan> rows;
            std::vector<uint8_t> active;
            std::vector<Accumulate> accs;
            std::vector<std::array<int32_t, kAxes>> keys; ///< [plans]
            std::array<ShapeSet, kAxes> shapes; ///< per oAct axis
            int32_t current = -1; ///< the plan of the current step
        } plans;

        /** One StaB word a compiled gathering row reads: the iAct table
         *  entries whose line parts its line sums, its bank, and its
         *  word / aw, so its address is line * in_wpl + word_hi. */
        struct PlannedRead
        {
            std::array<int32_t, kAxes> entry;
            int32_t bank;
            int32_t word_hi;
        };
        /** One gathering row of an input plan: its reads, reads[
         *  read_begin, read_end) in call order; its read slots, one per
         *  (local slot, active column) in call order from slots[
         *  slot_begin] (-1: padding); and its dualPortFeed summed over
         *  its t1 cycles. A row that reuses row 0's gather is empty. */
        struct GatherRow
        {
            uint32_t read_begin;
            uint32_t read_end;
            uint32_t slot_begin;
            int32_t feed;
        };
        /**
         * The run's input plans (see step()), one per (iAct-table shape,
         * output plan): the (valid, slot) content of the three iAct axis
         * tables and the output plan's active columns decide every
         * gathering row's reads, banks, dedup slots and feed. Only the
         * tables' line parts move between steps of one key. Plan p is
         * rows[p * rows_used, ...), keyed by keys[p]: its tables'
         * interned ids, then its output plan. Storage (bytes()) stays
         * within kInputPlanBytes: a plan or table content that would not
         * fit is not kept, and steps needing it walk the gather.
         */
        struct InputPlans
        {
            std::vector<GatherRow> rows;
            std::vector<PlannedRead> reads;
            std::vector<int16_t> slots;
            std::vector<std::array<int32_t, kAxes + 1>> keys; ///< [plans]
            std::array<ShapeSet, kAxes> shapes; ///< per iAct axis
            /** The plan the current step replays or, when compile, is
             *  recording; -1: the step walks without recording. */
            int32_t current = -1;
            bool compile = false;
            bool started = false; ///< the run's first step has walked
            /** current (or -1) answers the key of the tables and of
             *  out_plan, the output plan it was looked up under. */
            bool keyed = false;
            int32_t out_plan = -1;

            int64_t bytes() const;
        } inputs;
    };

    /** Bytes a run's input plans may hold (InputPlans::bytes). */
    static constexpr int64_t kInputPlanBytes = int64_t(256) << 10;

    /** Distinct reads and summed feed of one gathered row. */
    struct RowGather
    {
        int64_t reads;
        int64_t feed;
    };

    /**
     * Bring @p tables up to the step at base @p b under @p layout: each
     * axis of @p axes whose base coordinates or layout changed since its
     * last build is rebuilt, the others are kept.
     * @return whether any table was rebuilt.
     */
    bool refreshAxes(const Axes &axes, const Coord &b,
                     const BoundLayout &layout,
                     std::array<StepScratch::AxisTable, kAxes> &tables) const;

    /**
     * Column liveness and group destinations of row @p r at step base
     * @p b: col_active[c] for c < aw, and for each live group (the first
     * live column of the group decides) the StaB bank and line its sum is
     * written to under @p out (bound in next-layer iAct space), as
     * group_line and again as its parts, group_dest.
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
     * Bring the oAct tables up to the step at base @p b under @p out and
     * make plans.current the output plan of their shape: unchanged
     * tables keep the plan, a known shape finds its plan, and a new one
     * is compiled, row by row, from rowOutputs, splitWaves and waveHops.
     */
    void planOutputs(const Coord &b, const BoundLayout &out,
                     StepScratch &s) const;

    /**
     * Decide how the step whose iAct tables are current and whose output
     * plan is plans.current gathers (inputs.current, inputs.compile): the
     * run's first step walks without recording; a step with the last
     * step's key (@p moved false: no iAct table rebuilt, same output
     * plan) keeps its decision; a known key replays its input plan; a new
     * one is compiled while the step walks, unless its plan or its
     * tables' content would take the input plans past kInputPlanBytes,
     * in which case the step walks without recording.
     */
    void planInputs(bool moved, StepScratch &s) const;

    /**
     * Row @p r's iAct gather walked column by column from the iAct tables
     * (the uncompiled form): per local slot, each active column's three
     * entries give its validity, and a valid column's class finds its
     * read slot, or makes the cycle's next read of the word the entries'
     * line and slot parts address. Makes the sink's read and iact calls
     * (see step()), copies the reads to @p first when non-null, and, when
     * inputs.compile, records the row into input plan inputs.current.
     */
    template <class Sink>
    RowGather
    walkRow(int64_t r, const uint8_t *col_active, int64_t in_wpl,
            StepScratch &s, Sink &sink,
            StepScratch::GatherRead *first) const
    {
        using Entry = StepScratch::AxisEntry;
        // Locals, not members: the scratch stores below may alias members.
        const int aw = s.aw, shift = s.aw_shift;
        const int64_t cols = cols_used, slots = t1, mask = aw - 1;
        int64_t *bank_reads = s.bank_reads.data(),
                *class_slot = s.class_slot.data();
        const size_t classes = size_t(num_classes);
        const AxisKeys *col_keys = iact_col_keys.data();
        const int32_t *col_cls = col_class.data();
        const Entry *tab0 = s.iact_tables[0].entries.data(),
                    *tab1 = s.iact_tables[1].entries.data(),
                    *tab2 = s.iact_tables[2].entries.data();
        StepScratch::InputPlans &p = s.inputs;
        const bool compile = p.compile;
        StepScratch::GatherRow plan_row{uint32_t(p.reads.size()), 0,
                                        uint32_t(p.slots.size()), 0};
        const AxisKeys row_key = iact_row_keys[size_t(r)];
        RowGather g{0, 0};
        for (int64_t l = 0; l < slots; ++l) {
            std::fill_n(bank_reads, size_t(aw), int64_t(0));
            std::fill_n(class_slot, classes, int64_t(-1));
            const AxisKeys &lk = iact_local_keys[size_t(l)];
            const int32_t k0 = lk[0] + row_key[0], k1 = lk[1] + row_key[1],
                          k2 = lk[2] + row_key[2];
            int64_t num_read = 0;
            for (int64_t c = 0; c < cols; ++c) {
                if (!col_active[c]) continue;
                const AxisKeys &ck = col_keys[c];
                const int32_t i0 = ck[0] + k0, i1 = ck[1] + k1,
                              i2 = ck[2] + k2;
                const Entry &e0 = tab0[i0], &e1 = tab1[i1], &e2 = tab2[i2];
                int64_t slot = -1;
                if (e0.valid & e1.valid & e2.valid) {
                    int64_t &cs = class_slot[col_cls[c]];
                    if (cs < 0) {
                        const int64_t word = e0.slot + e1.slot + e2.slot;
                        const int64_t bank = word & mask;
                        const int64_t addr =
                            (e0.line + e1.line + e2.line) * in_wpl +
                            (word >> shift);
                        cs = num_read++;
                        ++bank_reads[bank];
                        if (first) *first++ = {bank, addr};
                        if (compile) {
                            p.reads.push_back({{i0, i1, i2},
                                               int32_t(bank),
                                               int32_t(word >> shift)});
                        }
                        sink.read(cs, bank, addr);
                    }
                    slot = cs;
                }
                if (compile) p.slots.push_back(int16_t(slot));
                sink.iact(c, l, slot);
            }
            g.reads += num_read;
            g.feed += dualPortFeed(bank_reads, aw);
        }
        if (compile) {
            plan_row.read_end = uint32_t(p.reads.size());
            plan_row.feed = int32_t(g.feed);
            p.rows[size_t(p.current) * size_t(rows_used) + size_t(r)] =
                plan_row;
        }
        return g;
    }

    /**
     * Row @p r's iAct gather replayed from input plan inputs.current:
     * the same sink calls as walkRow, in the same order, with each read's
     * address the only thing computed (its entries' line parts, summed,
     * times @p in_wpl plus its word_hi).
     */
    template <class Sink>
    RowGather
    replayRow(int64_t r, const uint8_t *col_active, int64_t in_wpl,
              const StepScratch &s, Sink &sink,
              StepScratch::GatherRead *first) const
    {
        const StepScratch::InputPlans &p = s.inputs;
        const StepScratch::GatherRow &row =
            p.rows[size_t(p.current) * size_t(rows_used) + size_t(r)];
        const StepScratch::AxisEntry *tab0 = s.iact_tables[0].entries.data(),
                                     *tab1 = s.iact_tables[1].entries.data(),
                                     *tab2 = s.iact_tables[2].entries.data();
        const StepScratch::PlannedRead *read = p.reads.data() + row.read_begin;
        const int16_t *slot = p.slots.data() + row.slot_begin;
        const int64_t cols = cols_used, slots = t1;
        for (int64_t l = 0; l < slots; ++l) {
            int64_t num_read = 0;
            for (int64_t c = 0; c < cols; ++c) {
                if (!col_active[c]) continue;
                const int64_t cs = *slot++;
                if (cs == num_read) {
                    const StepScratch::PlannedRead &x = *read++;
                    const int64_t addr = (tab0[x.entry[0]].line +
                                          tab1[x.entry[1]].line +
                                          tab2[x.entry[2]].line) *
                                             in_wpl +
                                         x.word_hi;
                    if (first) *first++ = {x.bank, addr};
                    sink.read(num_read++, x.bank, addr);
                }
                sink.iact(c, l, cs);
            }
        }
        return {int64_t(row.read_end - row.read_begin), int64_t(row.feed)};
    }

    /**
     * The body of the temporal step at base @p b, with iActs read from
     * StaB under @p in and oActs written under @p out (next-layer iAct
     * space). The step's control is compiled: its output plan
     * (planOutputs), once per output-table shape, and its input plan
     * (planInputs), once per (iAct-table shape, output plan); every step
     * of a known key replays them and computes only StaB line addresses.
     * The run's first step (the analytic probe's only one) and steps
     * whose key found no room in kInputPlanBytes walk the gather instead
     * (walkRow), without recording. Per row: the iAct gather of the
     * plan's active columns, where columns requesting the same word in
     * the same cycle share one bank access (the point-to-point
     * distribution broadcasts it), priced by dualPortFeed for the first
     * row_variants rows; the emission; the plan's bus slots (one per
     * wave, at least one), switch hops and OB destinations. In hardware
     * order, @p sink gets read(s, bank, addr) for the cycle's first
     * request of each StaB word (its value belongs in
     * StepScratch::read_val[s]), iact(c, l, s) for each active column c
     * at local slot l (s < 0: padding, a zero), emit(r, col_active) once
     * row r is gathered, and accumulate(g, bank, line) for each live
     * group's sum into its OB entry, wave by wave. Replayed, walked and
     * compiled steps make the same calls.
     *
     * When row_variants == 1 the iActs do not depend on the row, so row 0
     * records its gather (StepScratch::gather_read) and each later row
     * whose col_active equals row 0's reuses it: instead of the read and
     * iact calls, which would repeat row 0's call for call, the sink gets
     * one reuse(first_reads, n) with the n words of row 0's read calls in
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
        const int aw = cfg.aw;
        const int64_t in_wpl = ceilDiv(in.lineSize(), int64_t(aw));
        const int64_t out_wpl = ceilDiv(out.lineSize(), int64_t(aw));
        const bool shared = !s.gather_read.empty();
        int64_t shared_reads = 0; // row 0's distinct reads
        StepScratch::GatherRead *const rec_read = s.gather_read.data();
        const bool moved = refreshAxes(iact_axes, b, in, s.iact_tables);
        planOutputs(b, out, s);
        planInputs(moved, s);
        const bool replay = s.inputs.current >= 0 && !s.inputs.compile;
        const StepScratch::AxisEntry *out0 = s.oact_tables[0].entries.data(),
                                     *out1 = s.oact_tables[1].entries.data(),
                                     *out2 = s.oact_tables[2].entries.data();
        const size_t plan = size_t(s.plans.current) * size_t(rows_used);
        const StepScratch::RowPlan *row_plans = s.plans.rows.data() + plan;
        const uint8_t *col_active = s.plans.active.data() + plan * size_t(aw);
        const StepScratch::Accumulate *accs = s.plans.accs.data();
        for (int64_t r = 0; r < rows_used; ++r, col_active += aw) {
            const StepScratch::RowPlan &row = row_plans[r];
            if (shared && row.reuse) {
                sink.reuse(rec_read, shared_reads);
                reads += shared_reads;
            } else {
                StepScratch::GatherRead *first =
                    shared && r == 0 ? rec_read : nullptr;
                const RowGather g =
                    replay ? replayRow(r, col_active, in_wpl, s, sink, first)
                           : walkRow(r, col_active, in_wpl, s, sink, first);
                reads += g.reads;
                if (first) shared_reads = g.reads;
                if (r < row_variants) feed += g.feed;
            }

            sink.emit(r, col_active);
            macs += t1 * row.active;
            bus += row.bus;
            hops += row.hops;
            accumulates += row.acc_end - row.acc_begin;
            for (uint32_t i = row.acc_begin; i < row.acc_end; ++i) {
                const StepScratch::Accumulate &a = accs[i];
                const int64_t line = out0[a.dest.entry[0]].line +
                                     out1[a.dest.entry[1]].line +
                                     out2[a.dest.entry[2]].line;
                sink.accumulate(a.group, a.bank,
                                line * out_wpl + a.dest.word_hi);
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
