// Per-trace face of the Cortex-A7-like superscalar in-order core model.
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
// N traces through one shared issue stage.  This class is its per-trace
// face — a sim::backend over a 1-lane batch, whose one lane is the leader
// and so is never ejected.  The engine's cycle stages are compiled for one
// lane as well, so per-trace runs cost what a scalar core would.  There
// is no second in-order model to diff against; the independent checks are
// the functional executor (architectural state, tests/sim/
// differential_test.cpp) and the golden pins of the original scalar
// model's exact activity (tests/sim/inorder_activity_golden_test.cpp,
// the campaign record digests and the AES round-1 window digest).
#ifndef USCA_SIM_PIPELINE_H
#define USCA_SIM_PIPELINE_H

#include <cstdint>

#include "asmx/program.h"
#include "mem/cache.h"
#include "mem/memory.h"
#include "sim/backend.h"
#include "sim/batch_pipeline.h"
#include "sim/cpu_state.h"
#include "sim/micro_arch_config.h"
#include "sim/program_image.h"

namespace usca::sim {

class pipeline final : public backend {
public:
  explicit pipeline(asmx::program prog,
                    micro_arch_config config = cortex_a7());

  /// Shares an immutable program image instead of copying the program —
  /// the constructor campaign workers use.
  explicit pipeline(program_image image,
                    micro_arch_config config = cortex_a7());

  backend_kind kind() const noexcept override {
    return backend_kind::inorder;
  }

  /// Restores the freshly-constructed state — architectural registers,
  /// caches, scoreboard, leakage-relevant state registers, marks and the
  /// activity buffer — without reallocating or re-copying the program.
  /// The data image is re-installed from the shared program image.  A
  /// reset pipeline is bit-identical in behaviour to a newly constructed
  /// one (pinned by the reset-equivalence tests).
  void reset() override;

  /// Swaps in a different program (re-deriving the pairability cache) and
  /// resets.  Lets the CPI explorer reuse one pipeline across its dozens
  /// of micro-benchmarks.
  void rebind(program_image image) override;

  /// Touches every instruction line and the whole data image so that the
  /// measured region runs entirely from L1 — the paper's warm-up loops.
  void warm_caches() override { lane_.warm_caches(); }

  /// Runs until halt (or the cycle budget is exhausted, which throws).
  void run(std::uint64_t max_cycles = 50'000'000) override;

  /// Advances one cycle; returns false once halted.
  bool step_cycle() override;

  cpu_state& state() noexcept override { return lane_.state(0); }
  const cpu_state& state() const noexcept override { return lane_.state(0); }
  /// The simulated program (shared, immutable).
  const asmx::program& program() const noexcept override {
    return lane_.program();
  }
  mem::memory& memory() noexcept override { return lane_.memory(0); }
  const mem::memory& memory() const noexcept override {
    return lane_.memory(0);
  }
  const micro_arch_config& config() const noexcept { return lane_.config(); }

  std::uint64_t cycles() const noexcept override { return lane_.cycles(); }
  /// Instructions issued, nops and condition-failed instructions included.
  std::uint64_t instructions_issued() const noexcept override {
    return lane_.instructions_issued();
  }
  /// Number of cycles in which two instructions were issued together.
  std::uint64_t dual_issue_pairs() const noexcept {
    return lane_.dual_issue_pairs();
  }

  /// Backend-wide stamp type (kept as a nested alias for existing users).
  using mark_stamp = sim::mark_stamp;

  const mem::cache& icache() const noexcept { return lane_.icache(); }
  const mem::cache& dcache() const noexcept { return lane_.dcache(0); }

private:
  batch_pipeline lane_;
};

} // namespace usca::sim

#endif // USCA_SIM_PIPELINE_H
