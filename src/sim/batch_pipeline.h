// The in-order Cortex-A7 model of the paper (Section 3, Figure 2) — the
// one implementation of it: N independent traces advance through ONE
// in-order core model per cycle.  Per-trace runs use it with one lane
// through its sim::backend face sim::pipeline (pipeline.h, which also
// describes the modelled micro-architecture).
//
// The split follows directly from what is and is not data-dependent on
// the modelled core (see batch_sim.h for the protocol):
//
//   * shared control, run once per cycle for the whole batch — the fetch
//     stream (pc, I-cache), the issue-stage selection (operand/unit
//     scoreboard, pairability), the cycle/issue counters and mark stream;
//   * per-lane data, laid out lane-major — architectural registers and
//     flags, data memory and D-cache, every leakage-relevant state
//     register (RF ports, operand buses, ALU latches, WB buses, MDR,
//     align buffer) and the activity stream.
//
// Divergence checkpoints (lanes ejected on disagreement with the leader):
// condition outcomes of predicated instructions, indirect-branch (bx)
// targets, and D-cache penalties of executed memory ops.  A surviving
// lane's activity, marks and state do not depend on the batch it ran in:
// they are bit-identical to a 1-lane run of the same input (ctest -L
// sim_batch), and the 1-lane output is pinned against the original
// scalar model's by tests/sim/inorder_activity_golden_test.cpp.
#ifndef USCA_SIM_BATCH_PIPELINE_H
#define USCA_SIM_BATCH_PIPELINE_H

#include <array>
#include <cstdint>
#include <vector>

#include "asmx/program.h"
#include "mem/cache.h"
#include "mem/memory.h"
#include "sim/batch_sim.h"
#include "sim/cpu_state.h"
#include "sim/micro_arch_config.h"
#include "sim/program_image.h"
#include "sim/uarch_activity.h"

namespace usca::sim {

/// Dual-issue legality of an (older, younger) pair under `config`,
/// ignoring dynamic operand readiness.  The leakage scanner and the CPI
/// explorer's cross-checks use the same rules the issue stage does.
bool statically_pairable(const micro_arch_config& config,
                         const isa::instruction& older,
                         const isa::instruction& younger) noexcept;

class batch_pipeline final : public batch_backend {
public:
  explicit batch_pipeline(program_image image, micro_arch_config config,
                          std::size_t lanes = default_sim_batch_lanes);

  backend_kind kind() const noexcept override {
    return backend_kind::inorder;
  }

  void reset() override;
  /// Swaps in a different program image (re-deriving the pairability
  /// cache) and resets.
  void rebind(program_image image);
  void warm_caches() override;
  void run(std::uint64_t max_cycles = 50'000'000) override;
  /// Advances one cycle (publishing pc/halted to the active lanes);
  /// returns false once halted.
  bool step_cycle();

  cpu_state& state(std::size_t lane) noexcept override {
    return state_[lane];
  }
  const cpu_state& state(std::size_t lane) const noexcept override {
    return state_[lane];
  }
  mem::memory& memory(std::size_t lane) noexcept override {
    return memory_[lane];
  }
  const mem::memory& memory(std::size_t lane) const noexcept override {
    return memory_[lane];
  }
  const asmx::program& program() const noexcept override { return *prog_; }
  const micro_arch_config& config() const noexcept { return config_; }

  std::uint64_t cycles() const noexcept override { return cycle_; }
  std::uint64_t instructions_issued() const noexcept override {
    return issued_;
  }
  std::uint64_t dual_issue_pairs() const noexcept { return dual_pairs_; }

  const mem::cache& icache() const noexcept { return icache_; }
  const mem::cache& dcache(std::size_t lane) const noexcept {
    return dcache_[lane];
  }

private:
  // The per-trace face drives lane 0 and hands its recording buffers in
  // and out (batch_backend::drive_face).
  friend class pipeline;

  struct issue_outcome {
    bool issued = false;
    bool redirect = false; ///< taken branch to a non-fall-through target
    bool serialize = false; ///< mark/halt: nothing may pair or follow
  };

  /// Per-lane values of one emission point; one element when `one_lane`.
  template <bool one_lane, typename T = std::uint32_t>
  using lane_array = std::array<T, one_lane ? 1 : max_batch_lanes>;

  /// run() without the batch-occupancy telemetry (the face's run()).
  void simulate(std::uint64_t max_cycles);
  /// Cycles until halt or `limit` (which throws).
  template <bool one_lane>
  void step_until(std::uint64_t limit);
  /// One cycle of shared control, compiled for any width and for one
  /// lane (batch_backend::active()).
  template <bool one_lane>
  bool step();

  bool operands_ready(std::size_t index) const noexcept;
  bool unit_available(std::size_t index) const noexcept;
  template <bool one_lane>
  issue_outcome issue(const isa::instruction& ins, int slot);
  void derive_pairability();

  /// Agreement checkpoint (batch_backend::agree) returning the leader's
  /// value; a 1-lane batch has nothing to agree.
  template <bool one_lane, typename T>
  T agreed(const lane_array<one_lane, T>& values) noexcept {
    if constexpr (one_lane) {
      return values[0];
    } else {
      agree(values.data());
      return values[leader()];
    }
  }

  /// condition_passes per active lane, agreed (ejects disagreeing lanes);
  /// returns the leader's outcome.
  template <bool one_lane>
  bool agreed_exec(const isa::instruction& ins) noexcept;

  template <bool one_lane>
  void read_reg(isa::reg r, lane_array<one_lane>& out) const noexcept {
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      out[l] = state_[l].reg(r);
    }
  }

  // Event helpers: one call per emission point, looping the active lanes
  // in lane order.
  template <bool one_lane>
  void drive_rf_port(const lane_array<one_lane>& values);
  template <bool one_lane>
  void drive_is_ex_bus(std::uint8_t bus, const lane_array<one_lane>& values);
  template <bool one_lane>
  void drive_is_ex_bus_uniform(std::uint8_t bus, std::uint32_t value);
  template <bool one_lane>
  void write_back(int slot, const lane_array<one_lane>& values,
                  std::uint64_t at_cycle);
  template <bool one_lane>
  void retire_write(isa::reg r, const lane_array<one_lane>& values,
                    std::uint64_t ready_at) noexcept;

  program_image image_;
  const asmx::program* prog_ = nullptr;
  /// pairable_next_[i]: statically_pairable(code[i], code[i+1]) — the only
  /// pairing the aligned fetch stream presents for non-redirecting code,
  /// cached so the issue stage does not re-derive it every cycle.
  std::vector<std::uint8_t> pairable_next_;
  micro_arch_config config_;

  // Per-lane architectural + leakage state.  The state registers are
  // fixed-capacity lane-major arrays — element [port * lanes_ + lane] —
  // held in the object, so the cycle stages address them without loading
  // a heap pointer (which matters most at one lane).
  std::vector<mem::memory> memory_;
  std::vector<mem::cache> dcache_;
  std::array<cpu_state, max_batch_lanes> state_{};
  std::array<std::uint32_t, 3 * max_batch_lanes> rf_port_state_{};
  std::array<std::uint32_t, 3 * max_batch_lanes> is_ex_bus_state_{};
  std::array<std::uint32_t, 4 * max_batch_lanes> alu_latch_state_{};
  std::array<std::uint32_t, 2 * max_batch_lanes> ex_wb_latch_state_{};
  std::array<std::uint32_t, 2 * max_batch_lanes> wb_bus_state_{};
  std::array<std::uint32_t, max_batch_lanes> mdr_state_{};
  std::array<std::uint32_t, max_batch_lanes> align_buffer_state_{};

  // Shared front end + scoreboard (lane-invariant by the agreement
  // protocol: every update below happens under agreed control inputs).
  mem::cache icache_;
  std::array<std::uint64_t, isa::num_registers> reg_ready_{};
  std::uint64_t flags_ready_ = 0;
  std::uint64_t lsu_free_ = 0;
  std::uint64_t mul_free_ = 0;
  std::uint64_t fetch_ready_ = 0;

  std::uint64_t cycle_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t dual_pairs_ = 0;
  std::uint64_t active_lane_cycles_ = 0;
  int rf_ports_used_this_cycle_ = 0;
};

} // namespace usca::sim

#endif // USCA_SIM_BATCH_PIPELINE_H
