// The per-trace Cortex-A7-like superscalar in-order core model.
//
// The model implements the micro-architecture deduced in Section 3 of the
// paper (Figure 2): a two-wide in-order issue stage fed by a fetch/decode
// front end, a register file with 3 read / 2 write ports, two asymmetric
// ALUs (shifter and multiplier on ALU0 only), a 3-stage pipelined LSU with
// address generation in the issue stage, and full forwarding.  Alongside
// timing (CPI, dual-issue statistics) it tracks the switching activity of
// every leakage-relevant structure and emits sim::activity_event records
// consumed by the power model.
//
// Execution strategy: instructions execute *architecturally* at issue time
// (in program order, so values are exact), while a scoreboard models when
// results become forwardable.  This keeps the model fast enough for the
// 100k-trace experiments of the paper while preserving cycle-accurate
// issue behaviour — the property both the CPI exploration and the leakage
// characterization depend on.
//
// One engine implements this model: sim::batch_pipeline, which advances
// N traces through one shared issue stage.  A per-trace core is a 1-lane
// engine, and this class is exactly that: sim::batch_pipeline constructed
// with one lane, whose one lane is the leader and so is never ejected.
// The engine's cycle stages are compiled for one lane as well, so
// per-trace runs cost what a scalar core would.  There is no second
// in-order model to diff against; the independent checks are the
// functional executor (architectural state, in the differential engine
// matrix tests/sim/differential_test.cpp, which also holds every lane
// count to the 1-lane run) and the golden pins of the original scalar
// model's exact activity (tests/sim/inorder_activity_golden_test.cpp,
// the campaign record digests and the AES round-1 window digest).
#ifndef USCA_SIM_PIPELINE_H
#define USCA_SIM_PIPELINE_H

#include <utility>

#include "asmx/program.h"
#include "sim/batch_pipeline.h"
#include "sim/micro_arch_config.h"
#include "sim/program_image.h"

namespace usca::sim {

class pipeline final : public batch_pipeline {
public:
  explicit pipeline(asmx::program prog,
                    micro_arch_config config = cortex_a7())
      : pipeline(program_image(std::move(prog)), config) {}

  /// Shares an immutable program image instead of copying the program —
  /// the constructor campaign workers use.
  explicit pipeline(program_image image,
                    micro_arch_config config = cortex_a7())
      : batch_pipeline(std::move(image), config, 1) {}
};

} // namespace usca::sim

#endif // USCA_SIM_PIPELINE_H
