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

using Axis = NestGeometry::Axis;

/** The tensor axes iactAt (@p iact) or oactAt reads, unrolls filled in. */
NestGeometry::Axes
tensorAxes(bool iact, bool is_gemm, bool depthwise, const DimMap &unroll)
{
    const auto plain = [&unroll](Dim x, Dim a) {
        return Axis{x, a, a, true, false, unroll[a], 1};
    };
    const auto window = [&unroll](Dim x, Dim a, Dim k) {
        return Axis{x, a, k, true, true, unroll[a], unroll[k]};
    };
    if (is_gemm) {
        return {plain(Dim::M, Dim::M), plain(Dim::K, iact ? Dim::K : Dim::N),
                Axis{}};
    }
    if (iact) {
        return {plain(Dim::C, Dim::C), window(Dim::H, Dim::P, Dim::R),
                window(Dim::W, Dim::Q, Dim::S)};
    }
    return {plain(Dim::C, depthwise ? Dim::C : Dim::M),
            plain(Dim::H, Dim::P), plain(Dim::W, Dim::Q)};
}

/** Key parts on @p axes of a PE part whose per-dim offsets are @p off. */
NestGeometry::AxisKeys
axisKeys(const NestGeometry::Axes &axes, const Coord &off)
{
    NestGeometry::AxisKeys keys{};
    for (int i = 0; i < NestGeometry::kAxes; ++i) {
        const Axis &ax = axes[size_t(i)];
        if (!ax.live) continue;
        keys[size_t(i)] = int32_t(off[ax.a] * ax.uk +
                                  (ax.windowed ? off[ax.k] : 0));
    }
    return keys;
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

    // Split at() into its parts: a column's offset is L * col, a row's
    // L * C * row, a local slot's its index; key each part on every axis.
    iact_axes = tensorAxes(true, is_gemm, depthwise, unroll);
    oact_axes = tensorAxes(false, is_gemm, depthwise, unroll);
    iact_col_keys.resize(size_t(cols_used));
    oact_col_keys.resize(size_t(cols_used));
    std::vector<std::array<int64_t, kAxes>> col_offsets(
        static_cast<size_t>(cols_used));
    for (int64_t c = 0; c < cols_used; ++c) {
        Coord off;
        for (int i = 0; i < kNumDims; ++i) {
            off[Dim(i)] = local_deg[Dim(i)] * cols[size_t(c)].idx[Dim(i)];
        }
        iact_col_keys[size_t(c)] = axisKeys(iact_axes, off);
        oact_col_keys[size_t(c)] = axisKeys(oact_axes, off);
        for (int i = 0; i < kAxes; ++i) {
            const Axis &ax = iact_axes[size_t(i)];
            if (!ax.live) continue;
            // The column's share of the axis coordinate x (see Axis).
            col_offsets[size_t(c)][size_t(i)] =
                ax.windowed ? off[ax.a] * stride + off[ax.k] : off[ax.a];
        }
    }
    iact_row_keys.resize(size_t(rows_used));
    oact_row_keys.resize(size_t(rows_used));
    for (int64_t r = 0; r < rows_used; ++r) {
        Coord off;
        for (int i = 0; i < kNumDims; ++i) {
            off[Dim(i)] =
                local_deg[Dim(i)] * col_deg[Dim(i)] * rows[size_t(r)][Dim(i)];
        }
        iact_row_keys[size_t(r)] = axisKeys(iact_axes, off);
        oact_row_keys[size_t(r)] = axisKeys(oact_axes, off);
    }
    iact_local_keys.resize(size_t(t1));
    for (int64_t l = 0; l < t1; ++l) {
        iact_local_keys[size_t(l)] = axisKeys(iact_axes, locals[size_t(l)]);
    }

    // Column classes: a column's iAct is the step's, plus its row's and
    // local slot's parts, plus its own offsets, so equal offsets on every
    // axis mean one word and (the layout being one-to-one) unequal ones
    // two. One pass over an open-addressed table of first columns.
    col_class.resize(size_t(cols_used));
    num_classes = 0;
    const size_t mask = nextPow2(uint64_t(2 * cols_used)) - 1;
    std::vector<int32_t> first(mask + 1, -1);
    for (int64_t c = 0; c < cols_used; ++c) {
        const auto &off = col_offsets[size_t(c)];
        size_t h = size_t((off[0] * 73856093) ^ (off[1] * 19349663) ^
                          (off[2] * 83492791));
        for (h &= mask; first[h] >= 0; h = (h + 1) & mask) {
            if (col_offsets[size_t(first[h])] == off) break;
        }
        if (first[h] < 0) {
            first[h] = int32_t(c);
            col_class[size_t(c)] = int32_t(num_classes++);
        } else {
            col_class[size_t(c)] = col_class[size_t(first[h])];
        }
    }
}

bool
NestGeometry::refreshAxes(const Axes &axes, const Coord &b,
                          const BoundLayout &layout,
                          std::array<StepScratch::AxisTable, kAxes> &tables)
    const
{
    bool rebuilt = false;
    for (int i = 0; i < kAxes; ++i) {
        const Axis &ax = axes[size_t(i)];
        StepScratch::AxisTable &t = tables[size_t(i)];
        const int64_t base_a = b[ax.a];
        const int64_t base_k = ax.windowed ? b[ax.k] : 0;
        if (t.layout == &layout && t.base_a == base_a && t.base_k == base_k) {
            continue;
        }
        t.layout = &layout;
        t.base_a = base_a;
        t.base_k = base_k;
        t.shape = -1;
        rebuilt = true;
        StepScratch::AxisEntry *e = t.entries.data();
        if (!ax.live) {
            *e = {0, 0, true};
            continue;
        }
        // The axis's share of iactAt's / oactAt's bounds check.
        for (int64_t ia = 0; ia < ax.ua; ++ia) {
            const int64_t va = base_a + ia;
            for (int64_t ik = 0; ik < ax.uk; ++ik, ++e) {
                const int64_t vk = base_k + ik;
                const int64_t x =
                    ax.windowed ? va * stride + vk - pad : va;
                const bool valid =
                    va < ext[ax.a] &&
                    (!ax.windowed || (vk < ext[ax.k] && x >= 0 &&
                                      x < ext[ax.x]));
                const LineAddr part =
                    valid ? layout.dimAddr(ax.x, x) : LineAddr{};
                *e = {part.line, part.slot, valid};
            }
        }
    }
    return rebuilt;
}

void
NestGeometry::rowOutputs(const Coord &b, int64_t r, const BoundLayout &out,
                         StepScratch &s) const
{
    const int64_t out_wpl = ceilDiv(out.lineSize(), int64_t(s.aw));
    refreshAxes(oact_axes, b, out, s.oact_tables);
    const StepScratch::AxisEntry *tab0 = s.oact_tables[0].entries.data(),
                                 *tab1 = s.oact_tables[1].entries.data(),
                                 *tab2 = s.oact_tables[2].entries.data();
    const AxisKeys &rk = oact_row_keys[size_t(r)];
    std::fill(s.col_active.begin(), s.col_active.end(), uint8_t(0));
    std::fill(s.group_live.begin(), s.group_live.end(), uint8_t(0));
    for (int64_t c = 0; c < cols_used; ++c) {
        const AxisKeys &ck = oact_col_keys[size_t(c)];
        const StepScratch::AxisEntry &e0 = tab0[ck[0] + rk[0]],
                                     &e1 = tab1[ck[1] + rk[1]],
                                     &e2 = tab2[ck[2] + rk[2]];
        if (!(e0.valid & e1.valid & e2.valid)) continue;
        s.col_active[c] = 1;
        const int g = cols[size_t(c)].group;
        if (s.group_live[g]) continue;
        const int64_t word = e0.slot + e1.slot + e2.slot;
        const int64_t word_hi = word >> s.aw_shift;
        s.group_live[g] = 1;
        s.group_bank[g] = word & (s.aw - 1);
        s.group_line[g] = (e0.line + e1.line + e2.line) * out_wpl + word_hi;
        StepScratch::OutputDest &dest = s.group_dest[size_t(g)];
        dest.entry = {ck[0] + rk[0], ck[1] + rk[1], ck[2] + rk[2]};
        dest.word_hi = int32_t(word_hi);
    }
}

int
NestGeometry::splitWaves(StepScratch &s) const
{
    const size_t aw = size_t(s.aw);
    std::fill(s.wave_of_group.begin(), s.wave_of_group.end(), -1);
    int num_waves = 0;
    for (int64_t g = 0; g < num_groups; ++g) {
        if (!s.group_live[g]) continue;
        const size_t bank = size_t(s.group_bank[g]);
        int w = 0;
        while (w < num_waves && s.wave_bank_used[size_t(w) * aw + bank]) ++w;
        if (w == num_waves) {
            std::fill_n(s.wave_bank_used.begin() + ptrdiff_t(size_t(w) * aw),
                        aw, uint8_t(0));
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
    std::fill(s.dense_id.begin(), s.dense_id.end(), -1);
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

void
NestGeometry::planOutputs(const Coord &b, const BoundLayout &out,
                          StepScratch &s) const
{
    StepScratch::OutputPlans &p = s.plans;
    if (!refreshAxes(oact_axes, b, out, s.oact_tables) && p.current >= 0) {
        return;
    }
    std::array<int32_t, kAxes> key{-1, -1, -1};
    if (p.current >= 0) {
        for (size_t i = 0; i < kAxes; ++i) {
            StepScratch::AxisTable &t = s.oact_tables[i];
            if (t.shape < 0) t.shape = p.shapes[i].intern(t.entries, true);
            key[i] = t.shape;
        }
        const auto it = std::find(p.keys.begin(), p.keys.end(), key);
        if (it != p.keys.end()) {
            p.current = int32_t(it - p.keys.begin());
            return;
        }
    }
    p.current = int32_t(p.keys.size());
    p.keys.push_back(key);
    const size_t row0 = p.active.size();
    const uint8_t *active = s.col_active.data();
    for (int64_t r = 0; r < rows_used; ++r) {
        rowOutputs(b, r, out, s);
        p.active.insert(p.active.end(), active, active + s.aw);
        const uint8_t *first = p.active.data() + row0;
        StepScratch::RowPlan row{};
        row.active = int32_t(std::count(active, active + cols_used, 1));
        row.reuse = r > 0 && std::equal(active, active + cols_used, first);
        const int num_waves = splitWaves(s);
        row.bus = std::max(num_waves, 1);
        row.acc_begin = uint32_t(p.accs.size());
        for (int w = 0; w < num_waves; ++w) {
            row.hops += waveHops(w, s);
            for (int64_t g = 0; g < num_groups; ++g) {
                if (!s.group_live[g] || s.wave_of_group[g] != w) continue;
                const int32_t bank = int32_t(s.group_bank[g]);
                p.accs.push_back({int32_t(g), bank, s.group_dest[size_t(g)]});
            }
        }
        row.acc_end = uint32_t(p.accs.size());
        p.rows.push_back(row);
    }
}

void
NestGeometry::planInputs(bool moved, StepScratch &s) const
{
    StepScratch::InputPlans &p = s.inputs;
    p.compile = false;
    moved |= s.plans.current != p.out_plan;
    p.out_plan = s.plans.current;
    if (!p.started) {
        p.started = true;
        p.current = -1;
        return;
    }
    if (p.keyed && !moved) return;
    p.keyed = true;
    p.current = -1;
    std::array<int32_t, kAxes + 1> key;
    for (size_t i = 0; i < kAxes; ++i) {
        StepScratch::AxisTable &t = s.iact_tables[i];
        if (t.shape < 0) {
            const int64_t grow = int64_t(t.entries.size() * sizeof(int64_t) +
                                         sizeof(uint64_t));
            t.shape = p.shapes[i].intern(
                t.entries, p.bytes() + grow <= kInputPlanBytes);
            if (t.shape < 0) return;
        }
        key[i] = t.shape;
    }
    key[kAxes] = s.plans.current;
    const auto it = std::find(p.keys.begin(), p.keys.end(), key);
    if (it != p.keys.end()) {
        p.current = int32_t(it - p.keys.begin());
        return;
    }
    // The most the plan can take: every gathering row reads a word and
    // takes a slot at each (local slot, active column).
    const bool shared = !s.gather_read.empty();
    const StepScratch::RowPlan *rows =
        s.plans.rows.data() + size_t(s.plans.current) * size_t(rows_used);
    int64_t grow = int64_t(sizeof(key)) +
                   rows_used * int64_t(sizeof(StepScratch::GatherRow));
    for (int64_t r = 0; r < rows_used; ++r) {
        if (shared && rows[r].reuse) continue;
        grow += t1 * rows[r].active *
                int64_t(sizeof(int16_t) + sizeof(StepScratch::PlannedRead));
    }
    if (p.bytes() + grow > kInputPlanBytes) return;
    p.current = int32_t(p.keys.size());
    p.keys.push_back(key);
    p.rows.resize(p.rows.size() + size_t(rows_used));
    p.compile = true;
}

int32_t
NestGeometry::StepScratch::ShapeSet::intern(
    const std::vector<AxisEntry> &entries, bool insert)
{
    const auto code = [](const AxisEntry &e) {
        return e.valid ? 2 * e.slot + 1 : int64_t(0);
    };
    uint64_t hash = 1469598103934665603ull;
    for (const auto &e : entries) {
        hash = (hash ^ uint64_t(code(e))) * 1099511628211ull;
    }
    const size_t n = entries.size();
    for (size_t id = 0; id < hashes.size(); ++id) {
        if (hashes[id] != hash) continue;
        const int64_t *shape = codes.data() + id * n;
        size_t i = 0;
        while (i < n && shape[i] == code(entries[i])) ++i;
        if (i == n) return int32_t(id);
    }
    if (!insert) return -1;
    for (const auto &e : entries) codes.push_back(code(e));
    hashes.push_back(hash);
    return int32_t(hashes.size() - 1);
}

int64_t
NestGeometry::StepScratch::ShapeSet::bytes() const
{
    return int64_t(codes.size() * sizeof(int64_t) +
                   hashes.size() * sizeof(uint64_t));
}

void
NestGeometry::StepScratch::ShapeSet::clear()
{
    codes.clear();
    hashes.clear();
}

int64_t
NestGeometry::StepScratch::InputPlans::bytes() const
{
    int64_t n = int64_t(rows.size() * sizeof(GatherRow) +
                        reads.size() * sizeof(PlannedRead) +
                        slots.size() * sizeof(int16_t) +
                        keys.size() * sizeof(keys[0]));
    for (const ShapeSet &set : shapes) n += set.bytes();
    return n;
}

void
NestGeometry::StepScratch::reset(const NestGeometry &geo, int aw)
{
    const size_t groups = size_t(geo.num_groups);
    FEATHER_CHECK(isPow2(uint64_t(aw)), "AW must be a power of two, got ", aw);
    FEATHER_CHECK(geo.cols_used <= INT16_MAX, "a read slot must fit int16");
    this->aw = aw;
    aw_shift = int(log2Exact(uint64_t(aw)));
    col_active.resize(size_t(aw));
    group_line.resize(groups);
    group_bank.resize(groups);
    group_live.resize(groups);
    bank_reads.resize(size_t(aw));
    class_slot.resize(size_t(geo.cols_used));
    read_val.resize(size_t(geo.cols_used));
    wave_of_group.resize(groups);
    wave_bank_used.resize(groups * size_t(aw));
    dense_id.resize(groups);
    dense_dest.resize(groups);

    const bool shared = geo.row_variants == 1 && geo.rows_used > 1;
    gather_read.resize(shared ? size_t(geo.t1) * size_t(geo.cols_used) : 0);
    for (size_t i = 0; i < kAxes; ++i) {
        const Axis &in = geo.iact_axes[i], &out = geo.oact_axes[i];
        iact_tables[i].entries.resize(size_t(in.ua * in.uk));
        oact_tables[i].entries.resize(size_t(out.ua * out.uk));
        iact_tables[i].layout = oact_tables[i].layout = nullptr;
        plans.shapes[i].clear();
        inputs.shapes[i].clear();
    }
    group_dest.resize(groups);
    plans.rows.clear();
    plans.active.clear();
    plans.accs.clear();
    plans.keys.clear();
    plans.current = -1;
    inputs.rows.clear();
    inputs.reads.clear();
    inputs.slots.clear();
    inputs.keys.clear();
    inputs.current = -1;
    inputs.compile = inputs.started = inputs.keyed = false;
    inputs.out_plan = -1;
}

int64_t
NestGeometry::StepScratch::flatBytes() const
{
    const auto bytes = [](const auto &v) {
        return int64_t(v.size() * sizeof(v[0]));
    };
    return bytes(col_active) + bytes(group_line) + bytes(group_bank) +
           bytes(group_live) + bytes(bank_reads) + bytes(class_slot) +
           bytes(read_val) + bytes(wave_of_group) + bytes(wave_bank_used) +
           bytes(dense_id) + bytes(dense_dest);
}

void
NestGeometry::finish(LayerStats &stats, const FeatherConfig &cfg) const
{
    stats.weight_load_cycles_each = exposedLoad(cfg, 0);
    stats.fill_cycles = cfg.ah + BirrdTopology::stagesFor(cfg.aw) + 2;
    stats.cycles = stats.compute_cycles + stats.weight_load_cycles +
                   stats.fill_cycles;
}

} // namespace feather
