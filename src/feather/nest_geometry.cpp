#include "feather/nest_geometry.hpp"

#include "common/bits.hpp"
#include "common/log.hpp"
#include "noc/topology.hpp"

namespace feather {

namespace {

/** Dims reduced by the layer (their outputs accumulate): GEMM K; conv
 *  C,R,S; depthwise R,S. */
bool
isReducedDim(const LayerSpec &layer, Dim d)
{
    if (layer.type == OpType::Gemm) return d == Dim::K;
    if (layer.conv.depthwise) return d == Dim::R || d == Dim::S;
    return d == Dim::C || d == Dim::R || d == Dim::S;
}

/** Mixed-radix decode of a flat index over parallel dims (dims[0] outer). */
Coord
decodeSpatial(const std::vector<ParallelDim> &dims, int64_t flat)
{
    Coord idx;
    for (size_t i = dims.size(); i-- > 0;) {
        idx[dims[i].dim] = flat % dims[i].degree;
        flat /= dims[i].degree;
    }
    return idx;
}

std::vector<Dim>
temporalOrder(const LayerSpec &layer)
{
    if (layer.type == OpType::Gemm) return {Dim::N, Dim::K, Dim::M};
    if (layer.conv.depthwise) {
        return {Dim::C, Dim::R, Dim::S, Dim::P, Dim::Q};
    }
    return {Dim::M, Dim::C, Dim::R, Dim::S, Dim::P, Dim::Q};
}

DimMap
degreesOf(const std::vector<ParallelDim> &dims)
{
    DimMap deg;
    for (int i = 0; i < kNumDims; ++i) deg[Dim(i)] = 1;
    for (const auto &pd : dims) deg[pd.dim] = pd.degree;
    return deg;
}

DimMap
unrollOf(const NestMapping &mapping)
{
    DimMap unroll = degreesOf(mapping.local);
    for (const auto &pd : mapping.cols) unroll[pd.dim] *= pd.degree;
    for (const auto &pd : mapping.rows) unroll[pd.dim] *= pd.degree;
    return unroll;
}

LoopNest
temporalLoops(const std::vector<Dim> &order, const Extents &ext,
              const DimMap &unroll)
{
    std::vector<LoopLevel> levels;
    for (Dim d : order) {
        levels.push_back({d, ceilDiv(std::max<int64_t>(ext[d], 1),
                                     unroll[d])});
    }
    return LoopNest(std::move(levels));
}

} // namespace

void
checkNestMapping(const LayerSpec &layer, const NestMapping &mapping,
                 const FeatherConfig &cfg)
{
    const std::string err = mapping.validate(layer, cfg.aw, cfg.ah);
    FEATHER_CHECK(err.empty(), "invalid mapping: ", err);
    for (const auto &pd : mapping.local) {
        FEATHER_CHECK(isReducedDim(layer, pd.dim),
                      "local dims must be reduction dims, got ",
                      dimName(pd.dim));
    }
    FEATHER_CHECK(mapping.t1() <= cfg.max_local,
                  "local tile exceeds PE register file");
}

NestGeometry::NestGeometry(const LayerSpec &layer, const NestMapping &mapping)
    : is_gemm(layer.type == OpType::Gemm),
      depthwise(!is_gemm && layer.conv.depthwise),
      stride(layer.conv.stride), pad(layer.conv.pad),
      ext(is_gemm ? gemmExtents(layer.gemm) : convExtents(layer.conv)),
      dims_order(temporalOrder(layer)),
      // Everything but the innermost output sweep (GEMM M, conv P,Q).
      weight_dims(dims_order.begin(), dims_order.end() - (is_gemm ? 1 : 2)),
      unroll(unrollOf(mapping)), loops(temporalLoops(dims_order, ext, unroll)),
      total_steps(loops.totalIters()), t1(mapping.t1()),
      cols_used(mapping.colsUsed()), rows_used(mapping.rowsUsed()),
      local_deg(degreesOf(mapping.local)), col_deg(degreesOf(mapping.cols))
{
    weight_steps = 1;
    for (size_t i = 0; i < weight_dims.size(); ++i) {
        weight_steps *= loops.levels()[i].extent;
    }
    expected_contribs = 1;
    for (const LoopLevel &lv : loops.levels()) {
        if (isReducedDim(layer, lv.dim)) expected_contribs *= lv.extent;
    }
    for (const auto &pd : mapping.rows) {
        if (isReducedDim(layer, pd.dim)) expected_contribs *= pd.degree;
    }

    for (const auto &pd : mapping.cols) {
        if (!isReducedDim(layer, pd.dim)) group_dims.push_back(pd);
    }
    num_groups = totalDegree(group_dims);
    cols.resize(size_t(cols_used));
    for (int64_t c = 0; c < cols_used; ++c) {
        Column &col = cols[size_t(c)];
        col.idx = decodeSpatial(mapping.cols, c);
        int64_t g = 0;
        for (const auto &pd : group_dims) g = g * pd.degree + col.idx[pd.dim];
        col.group = int(g);
    }
    rows.resize(size_t(rows_used));
    for (int64_t r = 0; r < rows_used; ++r) {
        rows[size_t(r)] = decodeSpatial(mapping.rows, r);
    }
    locals.resize(size_t(t1));
    for (int64_t l = 0; l < t1; ++l) {
        locals[size_t(l)] = decodeSpatial(mapping.local, l);
    }

    row_variants = 1;
    for (const auto &pd : mapping.rows) {
        const bool affects = is_gemm ? (pd.dim == Dim::M || pd.dim == Dim::K)
                                     : (pd.dim != Dim::M);
        if (affects && pd.degree > 1) row_variants = rows_used;
    }
}

void
NestGeometry::rowOutputs(const Coord &b, int64_t r, const BoundLayout &out,
                         StepScratch &s) const
{
    const int64_t out_wpl = ceilDiv(out.lineSize(), int64_t(s.aw));
    std::fill_n(s.col_active, size_t(s.aw), uint8_t(0));
    std::fill_n(s.group_live, size_t(num_groups), uint8_t(0));
    for (int64_t c = 0; c < cols_used; ++c) {
        Coord o;
        if (!oactAt(b, r, c, o)) continue;
        s.col_active[c] = 1;
        const int g = cols[size_t(c)].group;
        if (s.group_live[g]) continue;
        const LineAddr a = out.addrOf(o);
        s.group_live[g] = 1;
        s.group_bank[g] = a.slot % s.aw;
        s.group_line[g] = a.line * out_wpl + a.slot / s.aw;
    }
}

int
NestGeometry::splitWaves(StepScratch &s) const
{
    const size_t aw = size_t(s.aw);
    std::fill_n(s.wave_of_group, size_t(num_groups), -1);
    int num_waves = 0;
    for (int64_t g = 0; g < num_groups; ++g) {
        if (!s.group_live[g]) continue;
        const size_t bank = size_t(s.group_bank[g]);
        int w = 0;
        while (w < num_waves && s.wave_bank_used[size_t(w) * aw + bank]) ++w;
        if (w == num_waves) {
            std::fill_n(s.wave_bank_used + size_t(w) * aw, aw, uint8_t(0));
            ++num_waves;
        }
        s.wave_bank_used[size_t(w) * aw + bank] = 1;
        s.wave_of_group[g] = w;
    }
    return num_waves;
}

int
NestGeometry::waveRequest(int w, StepScratch &s, RouteRequest &req) const
{
    req.group_of_input.assign(size_t(s.aw), -1);
    req.dests_of_group.clear();
    std::fill_n(s.dense_id, size_t(num_groups), -1);
    int num_dense = 0;
    for (int64_t c = 0; c < cols_used; ++c) {
        if (!s.col_active[c]) continue;
        const int g = cols[size_t(c)].group;
        if (s.wave_of_group[g] != w) continue;
        if (s.dense_id[g] < 0) {
            s.dense_id[g] = num_dense;
            s.dense_dest[num_dense++] = int(s.group_bank[g]);
        }
        req.group_of_input[size_t(c)] = s.dense_id[g];
    }
    for (int i = 0; i < num_dense; ++i) {
        req.dests_of_group.push_back({s.dense_dest[i]});
    }
    return num_dense;
}

int64_t
NestGeometry::waveHops(int w, StepScratch &s) const
{
    s.wave_key.assign(size_t(s.aw), '\0');
    for (int64_t c = 0; c < cols_used; ++c) {
        if (!s.col_active[c]) continue;
        const int g = cols[size_t(c)].group;
        if (s.wave_of_group[g] == w) {
            s.wave_key[size_t(c)] = char(s.group_bank[g] + 1);
        }
    }
    CompiledWaves &waves = CompiledWaves::local();
    if (const int64_t *hops = waves.find(s.wave_key)) return *hops;
    RouteRequest req;
    waveRequest(w, s, req);
    return waves.compile(s.wave_key, req);
}

NestGeometry::StepScratch::StepScratch(const NestGeometry &geo, int aw,
                                       Arena &arena)
    : aw(aw), col_active(arena.allocArray<uint8_t>(size_t(aw))),
      group_line(arena.allocArray<int64_t>(size_t(geo.num_groups))),
      group_bank(arena.allocArray<int64_t>(size_t(geo.num_groups))),
      group_live(arena.allocArray<uint8_t>(size_t(geo.num_groups))),
      bank_reads(arena.allocArray<int64_t>(size_t(aw))),
      read_key(arena.allocArray<int64_t>(size_t(geo.cols_used))),
      read_val(arena.allocArray<int16_t>(size_t(geo.cols_used))),
      wave_of_group(arena.allocArray<int>(size_t(geo.num_groups))),
      wave_bank_used(arena.allocArray<uint8_t>(size_t(geo.num_groups) *
                                               size_t(aw))),
      dense_id(arena.allocArray<int>(size_t(geo.num_groups))),
      dense_dest(arena.allocArray<int>(size_t(geo.num_groups)))
{
    if (geo.row_variants == 1 && geo.rows_used > 1) {
        const size_t cells = size_t(geo.t1) * size_t(geo.cols_used);
        gather_active.resize(size_t(geo.cols_used));
        gather_slot.resize(cells);
        gather_read.resize(cells);
    }
}

void
NestGeometry::finish(LayerStats &stats, const FeatherConfig &cfg) const
{
    stats.weight_load_cycles_each = exposedLoad(cfg, 0);
    stats.fill_cycles = cfg.ah + BirrdTopology(cfg.aw).numStages() + 2;
    stats.cycles = stats.compute_cycles + stats.weight_load_cycles +
                   stats.fill_cycles;
}

} // namespace feather
