#pragma once

/**
 * @file
 * The design points of the paper's evaluation (Tab. IV), expressed as
 * Layoutloop ArchSpecs:
 *
 *  real-device comparisons (Fig. 12): Gemmini-like, Xilinx-DPU-like,
 *  Edge-TPU-like — all fixed-dataflow (T-only) weight-stationary designs;
 *
 *  Layoutloop comparisons (Fig. 13): NVDLA-like, Eyeriss-like, SIGMA-like
 *  under two fixed layouts / off-chip reordering / line rotation
 *  (Medusa-like) / transpose (MTIA-like) / transpose+row-reorder
 *  (TPU-like), and FEATHER with RIR.
 *
 * All Layoutloop design points share the same 16x16 int8 PE budget and the
 * same physical buffer organization so differences come from dataflow
 * flexibility, layout policy, and reorder capability — mirroring the
 * paper's normalization.
 */

#include <string>
#include <vector>

#include "layoutloop/arch_spec.hpp"

namespace feather {

/** Workload family: selects the layout vocabulary (§VI-A2 footnote 4). */
enum class WorkloadKind { Conv, Gemm };

/** Shared 16x16 buffer organization for the Layoutloop design points. */
BufferSpec defaultIactBuffer();

namespace baselines {

/** One named design point of the registry. */
struct ZooEntry
{
    std::string name;    ///< registry key, e.g. "tpu-like"
    std::string summary; ///< one-line description
    ArchSpec (*make)(WorkloadKind kind);
};

/**
 * String-keyed registry over the arch zoo, so design points are
 * addressable by name from CLI surfaces (`--fleet tpu-like,...`). Each
 * entry builds its point with the named factory function below.
 */
class ArchZoo
{
  public:
    explicit ArchZoo(std::vector<ZooEntry> entries);

    /** The entry named @p name, or nullptr (names are exact, e.g.
     *  "nvdla-like"). */
    const ZooEntry *lookup(const std::string &name) const;

    /** Every registered name, in registration order. */
    std::vector<std::string> names() const;

    const std::vector<ZooEntry> &entries() const { return entries_; }

  private:
    std::vector<ZooEntry> entries_;
};

/** The process-wide registry (immutable after construction). */
const ArchZoo &archZoo();

} // namespace baselines

// --- Fig. 13 design points (16x16 PEs) ---
ArchSpec nvdlaLike(WorkloadKind kind);
ArchSpec eyerissLike(WorkloadKind kind);
/** SIGMA with a runtime-fixed layout (named entry of the layout space). */
ArchSpec sigmaLikeFixed(WorkloadKind kind, const char *layout_name);
ArchSpec sigmaLikeOffChip(WorkloadKind kind);
ArchSpec medusaLike(WorkloadKind kind);
ArchSpec mtiaLike(WorkloadKind kind);
ArchSpec tpuLike(WorkloadKind kind);
ArchSpec featherArch(WorkloadKind kind);
ArchSpec featherArch(WorkloadKind kind, int pe_cols, int pe_rows);

// --- Fig. 12 real-device models (fixed dataflows from the paper) ---
/** Gemmini: 16x16 weight-stationary, C16 x M16. */
ArchSpec gemminiLike();
/** Xilinx DPU: 1152 PEs, parallelism (M,C,H/W) = (12,12,8). */
ArchSpec xilinxDpuLike();
/** Edge TPU: 1024 PEs, weight-stationary 2D array. */
ArchSpec edgeTpuLike();

/** All Fig. 13 design points for a workload kind, in the paper's order. */
std::vector<ArchSpec> fig13DesignPoints(WorkloadKind kind);

} // namespace feather
