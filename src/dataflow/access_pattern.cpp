#include "dataflow/access_pattern.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace feather {

LoopNest::LoopNest(std::vector<LoopLevel> levels) : levels_(std::move(levels))
{
    for (const auto &l : levels_) {
        FEATHER_CHECK(l.extent >= 1, "loop extent must be >= 1");
        total_ *= l.extent;
    }
}

bool
LoopNest::advance(Coord &c) const
{
    for (size_t i = levels_.size(); i-- > 0;) {
        const auto &l = levels_[i];
        if (++c[l.dim] < l.extent) {
            return true;
        }
        c[l.dim] = 0;
    }
    return false;
}

namespace {

/**
 * Expand the spatial dims as an odometer, calling @p fn with the per-dim
 * spatial indices for each of the totalDegree() combinations.
 */
template <typename Fn>
void
forEachSpatialIndex(const std::vector<ParallelDim> &spatial, Fn fn)
{
    DimMap idx;
    while (true) {
        fn(idx);
        // Odometer advance over the spatial dims.
        size_t i = spatial.size();
        while (i-- > 0) {
            if (++idx[spatial[i].dim] < spatial[i].degree) {
                break;
            }
            idx[spatial[i].dim] = 0;
            if (i == 0) return;
        }
        if (spatial.empty()) return;
    }
}

std::vector<Coord>
dedupe(std::vector<Coord> coords, const std::vector<Dim> &key_dims)
{
    // Pack each coordinate into one 64-bit key (16 bits per dim is ample:
    // on-chip tensor extents are far below 65536) and sort/unique — this
    // is the mapper's hottest loop.
    std::vector<std::pair<uint64_t, size_t>> keyed;
    keyed.reserve(coords.size());
    for (size_t i = 0; i < coords.size(); ++i) {
        uint64_t key = 0;
        for (Dim d : key_dims) {
            key = (key << 16) | uint64_t(coords[i][d] & 0xffff);
        }
        keyed.emplace_back(key, i);
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<Coord> out;
    out.reserve(keyed.size());
    uint64_t prev = 0;
    bool first = true;
    for (const auto &[key, idx] : keyed) {
        if (first || key != prev) {
            out.push_back(coords[idx]);
            prev = key;
            first = false;
        }
    }
    return out;
}

} // namespace

std::vector<Coord>
concurrentIactCoords(const LayerSpec &layer,
                     const std::vector<ParallelDim> &spatial,
                     const Coord &base)
{
    std::vector<Coord> coords;
    if (layer.type == OpType::Gemm) {
        const GemmShape &g = layer.gemm;
        forEachSpatialIndex(spatial, [&](const DimMap &idx) {
            const int64_t m = base[Dim::M] + idx[Dim::M];
            const int64_t k = base[Dim::K] + idx[Dim::K];
            if (m >= g.m || k >= g.k) return;
            Coord c;
            c[Dim::M] = m;
            c[Dim::K] = k;
            coords.push_back(c);
        });
        return dedupe(std::move(coords), {Dim::M, Dim::K});
    }

    const ConvShape &cs = layer.conv;
    forEachSpatialIndex(spatial, [&](const DimMap &idx) {
        const int64_t cc = base[Dim::C] + idx[Dim::C];
        const int64_t p = base[Dim::P] + idx[Dim::P];
        const int64_t q = base[Dim::Q] + idx[Dim::Q];
        const int64_t r = base[Dim::R] + idx[Dim::R];
        const int64_t s = base[Dim::S] + idx[Dim::S];
        const int64_t h = p * cs.stride + r - cs.pad;
        const int64_t w = q * cs.stride + s - cs.pad;
        if (cc >= cs.c || h < 0 || h >= cs.h || w < 0 || w >= cs.w) return;
        if (p >= cs.outH() || q >= cs.outW() || r >= cs.r || s >= cs.s) return;
        Coord c;
        c[Dim::N] = base[Dim::N] + idx[Dim::N];
        c[Dim::C] = cc;
        c[Dim::H] = h;
        c[Dim::W] = w;
        coords.push_back(c);
    });
    return dedupe(std::move(coords), {Dim::N, Dim::C, Dim::H, Dim::W});
}

std::vector<int64_t>
linesTouched(const BoundLayout &bl, const std::vector<Coord> &coords)
{
    std::vector<int64_t> lines;
    lines.reserve(coords.size());
    for (const Coord &c : coords) {
        lines.push_back(bl.addrOf(c).line);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    return lines;
}

std::vector<Coord>
sampleTemporalBases(const LayerSpec &layer, const Mapping &mapping,
                    int max_samples)
{
    const Extents ext = layer.type == OpType::Gemm
                            ? gemmExtents(layer.gemm)
                            : convExtents(layer.conv);

    // Spatial step sizes: temporal loops advance in units of the parallel
    // degree for parallelized dims, 1 otherwise.
    DimMap step;
    for (int i = 0; i < kNumDims; ++i) {
        step[Dim(i)] = 1;
    }
    for (const auto &pd : mapping.spatial()) {
        step[pd.dim] = std::max(step[pd.dim], pd.degree);
    }

    std::vector<Dim> order = mapping.temporal_order;
    if (order.empty()) {
        // Default order: innermost over reduction dims, then spatial walk.
        if (layer.type == OpType::Gemm) {
            order = {Dim::M, Dim::N, Dim::K};
        } else {
            order = {Dim::M, Dim::C, Dim::P, Dim::Q, Dim::R, Dim::S};
        }
    }

    // Walk the temporal loops innermost-first for up to max_samples steps.
    std::vector<Coord> bases;
    Coord base;
    bases.push_back(base);
    while (int(bases.size()) < max_samples) {
        bool advanced = false;
        for (size_t i = order.size(); i-- > 0;) {
            const Dim d = order[i];
            const int64_t extent = std::max<int64_t>(ext[d], 1);
            if (base[d] + step[d] < extent) {
                base[d] += step[d];
                advanced = true;
                break;
            }
            base[d] = 0;
        }
        if (!advanced) break;
        bases.push_back(base);
    }
    return bases;
}

} // namespace feather
