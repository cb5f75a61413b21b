#pragma once

/**
 * @file
 * The model catalogue of the per-layer dataflow/layout scheduler.
 *
 * The graph type itself is sim::ModelGraph (sim/scenario.hpp), re-exported
 * here: a linear chain of MAC layers whose inter-layer tensor bindings are
 * validated up front. The scheduler searches every layer's dataflow and
 * never reads a layer's pin. Graphs come from the built-in registry
 * (resnet_block, mobilenet_slice, bert_mlp; resnet_block is the scenario
 * of that name with its pins dropped) or from a simple text format:
 *
 *   # '#' starts a comment, blank lines are skipped
 *   model tiny_cnn          # optional; defaults to the file's stem
 *   aw 8                    # optional default array size
 *   ah 8
 *   conv      name=stem c=8 hw=14 m=16 rs=3 pad=1
 *   depthwise name=dw   c=16 hw=14 rs=3 pad=1 qm=0.05
 *   pointwise name=pw   c=16 hw=14 m=32
 *
 * Layer lines are `<type> key=value...` with types conv, depthwise,
 * pointwise and gemm. Conv keys: c, m, h/w (or hw), r/s (or rs), stride,
 * pad, qm, name. GEMM keys: m, n, k, qm, name. `qm` is the requantization
 * multiplier applied after the layer (default 0.02; finite and positive).
 */

#include <optional>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace feather {
namespace model {

using sim::ModelGraph;
using sim::ModelLayer;

/** All built-in model graphs, in presentation order. */
const std::vector<ModelGraph> &builtinModels();

/** Lookup a built-in graph by name; nullptr when unknown. */
const ModelGraph *findModel(const std::string &name);

/** Built-in model names, in presentation order. */
std::vector<std::string> modelNames();

/**
 * Parse the text format described above. Returns nullopt with @p error
 * set (including the line number) on the first malformed line or when the
 * resulting graph fails validate().
 */
std::optional<ModelGraph> parseModelText(const std::string &text,
                                         const std::string &default_name,
                                         std::string *error = nullptr);

/**
 * Resolve @p name_or_path: a built-in graph name first, else a readable
 * model file. Returns nullopt with @p error set (listing the built-in
 * names) when neither resolves.
 */
std::optional<ModelGraph> loadModel(const std::string &name_or_path,
                                    std::string *error = nullptr);

} // namespace model
} // namespace feather
