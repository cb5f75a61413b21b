#include "baselines/arch_zoo.hpp"

#include "common/bits.hpp"
#include "common/log.hpp"

namespace feather {

namespace {

std::vector<Layout>
layoutSpace(WorkloadKind kind)
{
    return kind == WorkloadKind::Conv ? convLayoutSpace() : gemmLayoutSpace();
}

Layout
namedLayout(WorkloadKind kind, const char *name)
{
    for (const Layout &l : layoutSpace(kind)) {
        if (l.toString() == name) return l;
    }
    fatal(strCat("layout '", name, "' is not in the paper's space"));
}

/** Default fixed layout per family: HWC_C32 (conv) / MK_K32 (GEMM). */
Layout
defaultFixedLayout(WorkloadKind kind)
{
    return namedLayout(kind, kind == WorkloadKind::Conv ? "HWC_C32"
                                                        : "MK_K32");
}

ArchSpec
base16x16(WorkloadKind kind)
{
    ArchSpec a;
    a.pe_rows = 16;
    a.pe_cols = 16;
    a.freq_ghz = 1.0;
    a.iact_buffer = defaultIactBuffer();
    a.layouts = {defaultFixedLayout(kind)};
    return a;
}

} // namespace

BufferSpec
defaultIactBuffer()
{
    // 512 lines x 32 words; 8 lines per physical bank; TSMC dual-port.
    BufferSpec b;
    b.num_lines = 512;
    b.line_size = 32;
    b.lines_per_bank = 8;
    b.read_ports = 2;
    return b;
}

namespace baselines {

ArchZoo::ArchZoo(std::vector<ZooEntry> entries)
    : entries_(std::move(entries))
{
}

const ZooEntry *
ArchZoo::lookup(const std::string &name) const
{
    for (const ZooEntry &e : entries_) {
        if (e.name == name) return &e;
    }
    return nullptr;
}

std::vector<std::string>
ArchZoo::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const ZooEntry &e : entries_) out.push_back(e.name);
    return out;
}

const ArchZoo &
archZoo()
{
    // Captureless adapters where a builder's signature differs.
    static const ArchZoo zoo({
        {"nvdla-like", "fixed C/M unrolling, no reorder", nvdlaLike},
        {"eyeriss-like", "row-stationary with shape regrouping", eyerissLike},
        {"sigma-fixed", "fully flexible dataflow, one fixed layout",
         [](WorkloadKind kind) {
             return sigmaLikeFixed(kind, kind == WorkloadKind::Conv
                                             ? "HWC_C32"
                                             : "MK_K32");
         }},
        {"sigma-offchip", "flexible dataflow, DRAM round-trip reorder",
         sigmaLikeOffChip},
        {"medusa-like", "line-rotation on-chip reorder", medusaLike},
        {"mtia-like", "transpose-capable on-chip reorder", mtiaLike},
        {"tpu-like", "systolic, transpose + row-reorder", tpuLike},
        {"feather", "BIRRD reorder-in-reduction, full layout space",
         [](WorkloadKind kind) { return featherArch(kind); }},
        {"gemmini-like", "16x16 weight-stationary systolic",
         [](WorkloadKind) { return gemminiLike(); }},
        {"xilinx-dpu-like", "1152-PE fixed (M,C,Q) unrolling",
         [](WorkloadKind) { return xilinxDpuLike(); }},
        {"edgetpu-like", "1024-PE weight-stationary systolic",
         [](WorkloadKind) { return edgeTpuLike(); }},
    });
    return zoo;
}

} // namespace baselines

ArchSpec
nvdlaLike(WorkloadKind kind)
{
    ArchSpec a = base16x16(kind);
    a.name = "NVDLA-like";
    a.flex = {true, false, false, false,
              kind == WorkloadKind::Conv
                  ? std::vector<ParallelDim>{{Dim::C, 16}, {Dim::M, 16}}
                  : std::vector<ParallelDim>{{Dim::K, 16}, {Dim::N, 16}}};
    a.reorder = ReorderCapability::None;
    a.noc_hops_per_word = 1.0; // rigid multiplier-accumulator chains
    return a;
}

ArchSpec
eyerissLike(WorkloadKind kind)
{
    ArchSpec a = base16x16(kind);
    a.name = "Eyeriss-like";
    // Row-stationary: filters x output rows with a regroupable virtual
    // shape (TS) — the PE sets processing filter rows fold into these two
    // macroscopic parallel dims.
    a.flex = {true, false, false, true,
              kind == WorkloadKind::Conv
                  ? std::vector<ParallelDim>{{Dim::M, 16}, {Dim::P, 16}}
                  : std::vector<ParallelDim>{{Dim::K, 16}, {Dim::M, 16}}};
    a.reorder = ReorderCapability::None;
    a.noc_hops_per_word = 1.5; // X/Y bus delivery
    return a;
}

ArchSpec
sigmaLikeFixed(WorkloadKind kind, const char *layout_name)
{
    ArchSpec a = base16x16(kind);
    a.name = strCat("SIGMA-like (", layout_name, ")");
    a.flex = {true, true, true, true, {}};
    a.reorder = ReorderCapability::None;
    a.layouts = {namedLayout(kind, layout_name)};
    // Benes distribution + FAN reduction: log-depth traversals both ways.
    a.noc_hops_per_word = 16.0;
    return a;
}

ArchSpec
sigmaLikeOffChip(WorkloadKind kind)
{
    ArchSpec a = base16x16(kind);
    a.name = "SIGMA-like (off-chip reorder)";
    a.flex = {true, true, true, true, {}};
    a.reorder = ReorderCapability::OffChip;
    a.layouts = layoutSpace(kind);
    a.offchip_bytes_per_cycle = 128.0; // 128 GB/s HBM at 1 GHz
    a.noc_hops_per_word = 16.0;
    return a;
}

ArchSpec
medusaLike(WorkloadKind kind)
{
    ArchSpec a = base16x16(kind);
    a.name = "Medusa-like";
    a.flex = {true, true, true, true, {}};
    a.reorder = ReorderCapability::LineRotation;
    a.noc_hops_per_word = 16.0;
    return a;
}

ArchSpec
mtiaLike(WorkloadKind kind)
{
    ArchSpec a = base16x16(kind);
    a.name = "MTIA-like";
    // MTIA exposes T,O,P (no shape regrouping, §Tab. IV).
    a.flex = {true, true, true, false, {}};
    a.reorder = ReorderCapability::Transpose;
    a.noc_hops_per_word = 4.0;
    return a;
}

ArchSpec
tpuLike(WorkloadKind kind)
{
    ArchSpec a = base16x16(kind);
    a.name = "TPU-like";
    // TPUv4: T,O only — systolic parallelism is fixed to the array dims.
    a.flex = {true, true, false, false,
              kind == WorkloadKind::Conv
                  ? std::vector<ParallelDim>{{Dim::C, 16}, {Dim::M, 16}}
                  : std::vector<ParallelDim>{{Dim::K, 16}, {Dim::N, 16}}};
    a.reorder = ReorderCapability::TransposeRowReorder;
    a.systolic_fill_drain = true;
    a.noc_hops_per_word = 2.0;
    return a;
}

ArchSpec
featherArch(WorkloadKind kind, int pe_cols, int pe_rows)
{
    ArchSpec a = base16x16(kind);
    a.name = "FEATHER";
    a.pe_cols = pe_cols;
    a.pe_rows = pe_rows;
    a.flex = {true, true, true, true, {}};
    a.reorder = ReorderCapability::Rir;
    a.layouts = layoutSpace(kind);
    // BIRRD is 2*log2(AW) stages deep; distribution is point-to-point.
    a.noc_hops_per_word = 2.0 * double(log2Ceil(uint64_t(pe_cols)));
    return a;
}

ArchSpec
featherArch(WorkloadKind kind)
{
    return featherArch(kind, 16, 16);
}

ArchSpec
gemminiLike()
{
    ArchSpec a = base16x16(WorkloadKind::Conv);
    a.name = "Gemmini-like";
    a.flex = {true, false, false, false,
              {{Dim::C, 16}, {Dim::M, 16}}};
    a.reorder = ReorderCapability::None;
    a.systolic_fill_drain = true;
    a.noc_hops_per_word = 1.0;
    return a;
}

ArchSpec
xilinxDpuLike()
{
    ArchSpec a = base16x16(WorkloadKind::Conv);
    a.name = "Xilinx-DPU-like";
    a.pe_cols = 12;
    a.pe_rows = 96; // 12 x (12 x 8) = 1152 PEs
    a.flex = {true, false, false, false,
              {{Dim::M, 12}, {Dim::C, 12}, {Dim::Q, 8}}};
    a.reorder = ReorderCapability::None;
    a.noc_hops_per_word = 1.0;
    return a;
}

ArchSpec
edgeTpuLike()
{
    ArchSpec a = base16x16(WorkloadKind::Conv);
    a.name = "EdgeTPU-like";
    a.pe_cols = 64;
    a.pe_rows = 16; // 1024 PEs
    a.flex = {true, false, false, false,
              {{Dim::C, 64}, {Dim::M, 16}}};
    a.reorder = ReorderCapability::None;
    a.systolic_fill_drain = true;
    a.noc_hops_per_word = 1.0;
    return a;
}

std::vector<ArchSpec>
fig13DesignPoints(WorkloadKind kind)
{
    std::vector<ArchSpec> designs;
    designs.push_back(nvdlaLike(kind));
    designs.push_back(eyerissLike(kind));
    if (kind == WorkloadKind::Conv) {
        designs.push_back(sigmaLikeFixed(kind, "HWC_C32"));
        designs.push_back(sigmaLikeFixed(kind, "HWC_C4W8"));
    } else {
        designs.push_back(sigmaLikeFixed(kind, "MK_K32"));
    }
    designs.push_back(sigmaLikeOffChip(kind));
    designs.push_back(medusaLike(kind));
    designs.push_back(mtiaLike(kind));
    designs.push_back(tpuLike(kind));
    designs.push_back(featherArch(kind));
    return designs;
}

} // namespace feather
