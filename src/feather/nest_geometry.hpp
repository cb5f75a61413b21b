#pragma once

/**
 * @file
 * The loop-nest geometry of one layer under one NEST mapping (§III–IV,
 * Fig. 7/8): which dims are unrolled over columns, rows and local slots,
 * which temporal steps walk the rest, which columns reduce together through
 * BIRRD, and which StaB bank each reduction group's sum lands in.
 *
 * Everything here is data-independent. Both engine tiers read it: the
 * cycle simulator (FeatherAccelerator::run) walks every temporal step and
 * moves data through these coordinates; the analytic model
 * (analyticLayerStats) probes one step with the same pieces and scales.
 *
 * Coordinates: for dim d, PE (row r, column c, local slot l) at temporal
 * step base b holds
 *     b[d] + local[l][d] + L[d] * (col[c][d] + C[d] * row[r][d])
 * where L and C are the local and column degrees of d.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

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

    /**
     * Column liveness and group destinations of row @p r at step base
     * @p b: col_active[c] for c < aw, and for each live group (the first
     * live column of the group decides) the StaB bank and line its sum is
     * written to under @p out (bound in next-layer iAct space).
     */
    void rowOutputs(const Coord &b, int64_t r, const BoundLayout &out,
                    int aw, uint8_t *col_active, uint8_t *group_live,
                    int64_t *group_bank, int64_t *group_line) const;

    /**
     * Greedy wave split: each live group joins the first wave whose StaB
     * bank is still free, so every wave writes each bank at most once.
     * Fills wave_of_group (-1 for dead groups) using @p bank_used, a
     * num_groups x aw scratch table. @return the number of waves.
     */
    int splitWaves(const uint8_t *group_live, const int64_t *group_bank,
                   int aw, uint8_t *bank_used, int *wave_of_group) const;

    /**
     * Fill @p req with the BIRRD request of wave @p w: each active column
     * of the wave feeds its group, renumbered densely in column order,
     * and each group's sum goes to its bank. Uses @p dense_id
     * (num_groups) and @p dense_dest (num_groups) as scratch.
     * @return the number of groups in the wave (0: nothing to route).
     */
    int waveRequest(int w, const uint8_t *col_active,
                    const int *wave_of_group, const int64_t *group_bank,
                    int aw, int *dense_id, int *dense_dest,
                    RouteRequest &req) const;

    /**
     * BIRRD switch hops of wave @p w, replayed from the calling thread's
     * CompiledWaves table (noc/router.hpp). @p key receives the wave's
     * key: aw bytes, byte c the bank + 1 of column c's group when c is an
     * active column of the wave, else 0. A miss compiles the entry from
     * waveRequest, with @p dense_id and @p dense_dest as its scratch.
     */
    int64_t waveHops(int w, const uint8_t *col_active,
                     const int *wave_of_group, const int64_t *group_bank,
                     int aw, int *dense_id, int *dense_dest,
                     std::string &key) const;
};

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

} // namespace feather
