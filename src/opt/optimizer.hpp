// Pipeline text (opt::PipelineDesc, pipeline.hpp) is the optimizer's only
// configuration. What is left here is read only by perfbench/layers.cpp,
// the frozen benchmark: it goes together with that file's next change.
#pragma once

#include "opt/pipeline.hpp"

namespace ith::opt {

/// Empty; read only by perfbench (as the type of VmConfig::opt_options).
struct OptimizerOptions {};

/// PipelineDesc::standard(); read only by perfbench.
inline PipelineDesc pipeline_from_options(const OptimizerOptions&) {
  return PipelineDesc::standard();
}

}  // namespace ith::opt
