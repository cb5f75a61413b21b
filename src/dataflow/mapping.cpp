#include "dataflow/mapping.hpp"

#include "common/bits.hpp"
#include "common/log.hpp"

namespace feather {

int64_t
totalDegree(const std::vector<ParallelDim> &dims)
{
    int64_t p = 1;
    for (const auto &d : dims) {
        p *= d.degree;
    }
    return p;
}

double
spatialOccupancy(const std::vector<ParallelDim> &dims, const Extents &extents)
{
    double occ = 1.0;
    for (const auto &d : dims) {
        const int64_t e = std::max<int64_t>(extents[d.dim], 1);
        const int64_t steps = ceilDiv(e, d.degree);
        occ *= double(e) / double(d.degree * steps);
    }
    return occ;
}

std::vector<ParallelDim>
Mapping::spatial() const
{
    std::vector<ParallelDim> all = cols;
    all.insert(all.end(), rows.begin(), rows.end());
    return all;
}

std::string
Mapping::toString() const
{
    std::string s = "cols[";
    for (const auto &d : cols) {
        s += strCat(dimName(d.dim), d.degree, " ");
    }
    s += "] rows[";
    for (const auto &d : rows) {
        s += strCat(dimName(d.dim), d.degree, " ");
    }
    s += "] order ";
    for (Dim d : temporal_order) {
        s += dimName(d);
    }
    return s;
}

Extents
convExtents(const ConvShape &shape)
{
    Extents e;
    e[Dim::N] = shape.n;
    e[Dim::M] = shape.depthwise ? 1 : shape.m;
    e[Dim::C] = shape.c;
    e[Dim::H] = shape.h;
    e[Dim::W] = shape.w;
    e[Dim::P] = shape.outH();
    e[Dim::Q] = shape.outW();
    e[Dim::R] = shape.r;
    e[Dim::S] = shape.s;
    return e;
}

Extents
gemmExtents(const GemmShape &shape)
{
    Extents e;
    e[Dim::M] = shape.m;
    e[Dim::N] = shape.n;
    e[Dim::K] = shape.k;
    return e;
}

Extents
iactExtents(const LayerSpec &layer)
{
    Extents e;
    if (layer.type == OpType::Gemm) {
        e[Dim::M] = layer.gemm.m;
        e[Dim::K] = layer.gemm.k;
    } else {
        e[Dim::N] = layer.conv.n;
        e[Dim::C] = layer.conv.c;
        e[Dim::H] = layer.conv.h;
        e[Dim::W] = layer.conv.w;
    }
    return e;
}

} // namespace feather
