#include "nest/nest_mapping.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"

namespace feather {

std::vector<ParallelDim>
NestMapping::spatial() const
{
    std::vector<ParallelDim> all = cols;
    all.insert(all.end(), rows.begin(), rows.end());
    return all;
}

std::string
NestMapping::toString() const
{
    auto dims = [](const std::vector<ParallelDim> &v) {
        std::string s;
        for (const auto &d : v) {
            s += strCat(dimName(d.dim), d.degree, " ");
        }
        return s;
    };
    return strCat("cols[", dims(cols), "] rows[", dims(rows), "] local[",
                  dims(local), "]");
}

std::string
NestMapping::validate(const LayerSpec &layer, int aw, int ah) const
{
    if (colsUsed() > aw) {
        return strCat("col degree ", colsUsed(), " exceeds AW=", aw);
    }
    if (rowsUsed() > ah) {
        return strCat("row degree ", rowsUsed(), " exceeds AH=", ah);
    }
    // A dim may be split across local/cols/rows (Fig. 9 splits M over both
    // columns and rows) but must appear at most once within each group.
    for (const auto &group : {cols, rows, local}) {
        std::vector<int> count(kNumDims, 0);
        for (const auto &pd : group) {
            if (pd.degree < 1) return "degree must be >= 1";
            if (++count[size_t(pd.dim)] > 1) {
                return strCat("dim ", dimName(pd.dim),
                              " repeated within one spatial group");
            }
        }
    }
    const bool is_gemm = layer.type == OpType::Gemm;
    for (const auto &group : {cols, rows, local}) {
        for (const auto &pd : group) {
            if (is_gemm) {
                if (pd.dim != Dim::M && pd.dim != Dim::N && pd.dim != Dim::K) {
                    return strCat("GEMM mapping uses dim ", dimName(pd.dim));
                }
            } else {
                if (pd.dim == Dim::K) {
                    return "conv mapping must not use K";
                }
                if (layer.conv.depthwise && pd.dim == Dim::M) {
                    return "depthwise conv has no independent M";
                }
            }
        }
    }
    return "";
}

NestMapping
NestMapping::canonical(const LayerSpec &layer, int aw, int ah)
{
    NestMapping m;
    const auto fit = fitPow2; // shared spatial-unroll sizing rule

    if (layer.type == OpType::Gemm) {
        const GemmShape &g = layer.gemm;
        // Local K-tile keeps Phase 1 at least AH long (full bus utilization).
        const int64_t kt = std::min<int64_t>(nextPow2(uint64_t(ah)),
                                             nextPow2(uint64_t(g.k)));
        m.local = {{Dim::K, kt}};
        // Columns: split between K (reduction groups) and N.
        const int64_t k_cols = std::min<int64_t>(
            fit(ceilDiv<int64_t>(g.k, kt), aw), int64_t(aw));
        m.cols = {{Dim::K, k_cols}};
        const int64_t n_cols = fit(g.n, aw / k_cols);
        if (n_cols > 1) m.cols.push_back({Dim::N, n_cols});
        m.rows = {{Dim::M, fit(g.m, ah)}};
        return m;
    }

    const ConvShape &c = layer.conv;
    m.local = {{Dim::R, c.r}, {Dim::S, c.s}};
    if (c.depthwise) {
        // Depthwise: no cross-channel reduction; parallelize C and Q.
        // Rows are capped at t1 so the shared output buses stay saturated
        // (each row needs the bus once per t1 cycles).
        const int64_t c_cols = fit(c.c, aw);
        m.cols = {{Dim::C, c_cols}};
        const int64_t q_cols = fit(c.outW(), aw / c_cols);
        if (q_cols > 1) m.cols.push_back({Dim::Q, q_cols});
        const int64_t row_cap = std::min<int64_t>(ah, nextPow2(m.t1()) ==
                                                          uint64_t(m.t1())
                                                      ? m.t1()
                                                      : nextPow2(m.t1()) / 2);
        m.rows = {{Dim::P, fit(c.outH(), std::max<int64_t>(row_cap, 1))}};
        return m;
    }
    // Standard conv (Fig. 9): C x M across columns, M across rows. For
    // small kernels (1x1 convs) Phase 1 would be shorter than the bus
    // multiplexing depth, so a local C-tile extends the temporal
    // reduction (its partial sums fold inside the PE, like K-tiles in
    // GEMM mode).
    int64_t local_c = 1;
    while (c.r * c.s * local_c < ah && local_c * 2 <= c.c) {
        local_c *= 2;
    }
    if (local_c > 1) m.local.push_back({Dim::C, local_c});
    const int64_t c_cols = fit(ceilDiv(c.c, local_c), aw);
    m.cols = {{Dim::C, c_cols}};
    const int64_t m_cols = fit(c.m, aw / c_cols);
    if (m_cols > 1) m.cols.push_back({Dim::M, m_cols});
    m.rows = {{Dim::M, fit(ceilDiv(c.m, m_cols), ah)}};
    return m;
}

} // namespace feather
