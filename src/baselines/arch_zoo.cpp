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

// The actual design-point builders. The registry points at these; the
// classic factory functions are thin wrappers over registry lookup.

ArchSpec
makeNvdlaLike(WorkloadKind kind)
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
makeEyerissLike(WorkloadKind kind)
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
makeSigmaLikeFixed(WorkloadKind kind, const char *layout_name)
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

/** The registry's "sigma-fixed" point: the default layout per family. */
ArchSpec
makeSigmaLikeFixedDefault(WorkloadKind kind)
{
    return makeSigmaLikeFixed(kind, kind == WorkloadKind::Conv ? "HWC_C32"
                                                               : "MK_K32");
}

ArchSpec
makeSigmaLikeOffChip(WorkloadKind kind)
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
makeMedusaLike(WorkloadKind kind)
{
    ArchSpec a = base16x16(kind);
    a.name = "Medusa-like";
    a.flex = {true, true, true, true, {}};
    a.reorder = ReorderCapability::LineRotation;
    a.noc_hops_per_word = 16.0;
    return a;
}

ArchSpec
makeMtiaLike(WorkloadKind kind)
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
makeTpuLike(WorkloadKind kind)
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
makeFeatherArch(WorkloadKind kind, int pe_cols, int pe_rows)
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
makeFeatherDefault(WorkloadKind kind)
{
    return makeFeatherArch(kind, 16, 16);
}

ArchSpec
makeGemminiLike(WorkloadKind)
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
makeXilinxDpuLike(WorkloadKind)
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
makeEdgeTpuLike(WorkloadKind)
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
    static const ArchZoo zoo({
        {"nvdla-like", "fixed C/M unrolling, no reorder", makeNvdlaLike},
        {"eyeriss-like", "row-stationary with shape regrouping",
         makeEyerissLike},
        {"sigma-fixed", "fully flexible dataflow, one fixed layout",
         makeSigmaLikeFixedDefault},
        {"sigma-offchip", "flexible dataflow, DRAM round-trip reorder",
         makeSigmaLikeOffChip},
        {"medusa-like", "line-rotation on-chip reorder", makeMedusaLike},
        {"mtia-like", "transpose-capable on-chip reorder", makeMtiaLike},
        {"tpu-like", "systolic, transpose + row-reorder", makeTpuLike},
        {"feather", "BIRRD reorder-in-reduction, full layout space",
         makeFeatherDefault},
        {"gemmini-like", "16x16 weight-stationary systolic",
         makeGemminiLike},
        {"xilinx-dpu-like", "1152-PE fixed (M,C,Q) unrolling",
         makeXilinxDpuLike},
        {"edgetpu-like", "1024-PE weight-stationary systolic",
         makeEdgeTpuLike},
    });
    return zoo;
}

} // namespace baselines

namespace {

/** The wrapper contract: the classic factories resolve through the
 *  registry, so a renamed or dropped entry fails loudly in tests. */
ArchSpec
fromZoo(const char *name, WorkloadKind kind)
{
    const baselines::ZooEntry *e = baselines::archZoo().lookup(name);
    FEATHER_CHECK(e != nullptr, strCat("arch zoo entry '", name,
                                       "' vanished from the registry"));
    return e->make(kind);
}

} // namespace

ArchSpec
nvdlaLike(WorkloadKind kind)
{
    return fromZoo("nvdla-like", kind);
}

ArchSpec
eyerissLike(WorkloadKind kind)
{
    return fromZoo("eyeriss-like", kind);
}

ArchSpec
sigmaLikeFixed(WorkloadKind kind, const char *layout_name)
{
    return makeSigmaLikeFixed(kind, layout_name);
}

ArchSpec
sigmaLikeOffChip(WorkloadKind kind)
{
    return fromZoo("sigma-offchip", kind);
}

ArchSpec
medusaLike(WorkloadKind kind)
{
    return fromZoo("medusa-like", kind);
}

ArchSpec
mtiaLike(WorkloadKind kind)
{
    return fromZoo("mtia-like", kind);
}

ArchSpec
tpuLike(WorkloadKind kind)
{
    return fromZoo("tpu-like", kind);
}

ArchSpec
featherArch(WorkloadKind kind)
{
    return fromZoo("feather", kind);
}

ArchSpec
featherArch(WorkloadKind kind, int pe_cols, int pe_rows)
{
    return makeFeatherArch(kind, pe_cols, pe_rows);
}

ArchSpec
gemminiLike()
{
    return fromZoo("gemmini-like", WorkloadKind::Conv);
}

ArchSpec
xilinxDpuLike()
{
    return fromZoo("xilinx-dpu-like", WorkloadKind::Conv);
}

ArchSpec
edgeTpuLike()
{
    return fromZoo("edgetpu-like", WorkloadKind::Conv);
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
