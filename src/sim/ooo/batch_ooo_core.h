// The production engine of the out-of-order backend (the model itself is
// described in ooo_core.h): N independent traces advance through ONE
// rename/wakeup/select/retire engine per cycle.  A per-trace core is a
// 1-lane engine: sim::ooo_core is this class constructed with one lane.
// The only other OoO scheduler is the oracle sim::ooo_reference_core.
//
// The split follows the select-µop predication design: because
// predication renames the destination and takes the full unit/latency/
// CDB trip whatever the condition's outcome, the *schedule* — rename
// decisions, RS wakeup and select, CDB arbitration, ROB retirement,
// store-buffer occupancy — is independent of lane data, so all of it is
// shared control run once per batch.  Only *values* differ per lane:
// architectural registers/flags/memory, PRF port traffic, ALU latches,
// CDB result values, retire-port values, MDR/align-buffer words — all
// laid out lane-major next to the shared structures that index them
// (rob_value_[slot * lanes + lane], ...).
//
// Divergence checkpoints (lanes ejected on disagreement, batch_sim.h):
// condition outcomes of branches (cond != al), indirect-branch (bx)
// targets, and D-cache penalties of loads at issue — wrong-path loads
// included.  Non-branch condition outcomes need NO agreement — a
// lane-local outcome only gates lane-local data (memory writes, value
// selection, flags, the per-lane squash mask feeding datapath
// emissions), never the schedule.
//
// Speculation (speculation.h) is shared control too: the predictor
// learns only from correct-path branch outcomes, which are agreement
// checkpoints already, and wrong-path fetch is steered by prediction
// alone.  So the predictor, the wrong-path episode and the recovery
// flush run once per batch; only the shadow registers/flags the wrong
// path executes against (seeded per lane at the mispredict) and the
// wrong-path load values are per lane.  The wrong path renames through
// the same rename_one as the correct path, against the shadow state,
// with memory writes, predictor learning and marks suppressed.
//
// Constructing this class under ooo_scheduler::reference (or
// USCA_OOO_REFERENCE=1) throws: the oracle has no batched twin, and
// campaigns run it in groups of one (make_batch_backend builds it at one
// lane).
#ifndef USCA_SIM_OOO_BATCH_OOO_CORE_H
#define USCA_SIM_OOO_BATCH_OOO_CORE_H

#include <array>
#include <cstdint>
#include <vector>

#include "asmx/program.h"
#include "mem/cache.h"
#include "mem/memory.h"
#include "sim/batch_sim.h"
#include "sim/cpu_state.h"
#include "sim/micro_arch_config.h"
#include "sim/ooo/speculation.h"
#include "sim/program_image.h"
#include "sim/uarch_activity.h"

namespace usca::sim {

class batch_ooo_core : public batch_backend {
public:
  /// Throws util::simulation_error for a structurally invalid ooo_config
  /// or when the reference scheduler is selected/forced (see above).
  explicit batch_ooo_core(program_image image, micro_arch_config config,
                          std::size_t lanes = default_sim_batch_lanes);

  backend_kind kind() const noexcept override { return backend_kind::ooo; }

  void reset() override;
  /// Swaps in a different program image and resets.
  void rebind(program_image image) override;
  void warm_caches() override;
  void run(std::uint64_t max_cycles = 50'000'000) override;
  /// One cycle with lane sync (which may skip ahead over idle cycles).
  bool step_cycle() override;

  cpu_state& state(std::size_t lane = 0) noexcept override {
    return state_[lane];
  }
  const cpu_state& state(std::size_t lane = 0) const noexcept override {
    return state_[lane];
  }
  mem::memory& memory(std::size_t lane = 0) noexcept override {
    return memory_[lane];
  }
  const mem::memory& memory(std::size_t lane = 0) const noexcept override {
    return memory_[lane];
  }
  const asmx::program& program() const noexcept override { return *prog_; }
  const micro_arch_config& config() const noexcept { return config_; }

  std::uint64_t cycles() const noexcept override { return cycle_; }
  /// Instructions renamed (accepted by the front end), nops and
  /// condition-failed instructions included — the OoO analogue of the
  /// pipeline's issued count.
  std::uint64_t instructions_issued() const noexcept override {
    return renamed_;
  }
  /// Instructions committed at the head of the ROB.
  std::uint64_t instructions_retired() const noexcept { return retired_; }
  /// Cycles in which the rename stage accepted more than one instruction
  /// (the OoO analogue of dual-issue pairs).
  std::uint64_t multi_rename_cycles() const noexcept {
    return multi_rename_cycles_;
  }
  /// Branch mispredictions of the shared front end (0 under the perfect
  /// predictor) and the wrong-path µops they renamed — each one toggled
  /// fetch/rename/RS leakage components before its recovery flush.
  std::uint64_t mispredicts() const noexcept { return mispredicts_; }
  std::uint64_t wrong_path_renamed() const noexcept {
    return wrong_path_renamed_;
  }
  /// The speculation block actually in effect (config + env override).
  const speculation_config& speculation() const noexcept { return spec_; }

  const mem::cache& icache() const noexcept { return icache_; }
  const mem::cache& dcache(std::size_t lane = 0) const noexcept {
    return dcache_[lane];
  }

private:
  static constexpr std::uint8_t no_reg = 0xff;
  static constexpr std::uint32_t no_slot = 0xffffffffU;
  static constexpr std::size_t max_sources = 4;
  static constexpr std::uint32_t age_ring_size = 64;

  // Shared control halves of the oracle's µop records (ooo_reference_core):
  // the per-lane value fields (value/store_addr, src_value/address/
  // mem_word/sub_value/shift_value/result, the squash flag) live in the
  // lane-major arrays below instead.
  struct rob_entry {
    std::uint32_t seq = 0;
    std::uint8_t dest_arch = no_reg;
    std::uint8_t dest_preg = no_reg;
    std::uint8_t old_preg = no_reg;
    bool completed = false;
    bool has_value = false;
    bool is_store = false;
    bool is_mark = false;
    bool is_halt = false;
    std::uint16_t mark_id = 0;
  };

  struct rs_entry {
    bool busy = false;
    std::uint32_t rob_slot = no_slot;
    std::uint32_t seq = 0;
    std::uint8_t n_src = 0;
    std::array<std::uint8_t, max_sources> src_preg{};
    std::uint32_t flags_wait_slot = no_slot;
    bool needs_alu0 = false;
    bool is_mul = false;
    bool uses_lsu = false;
    bool is_load = false;
    bool is_store = false;
    bool is_subword = false;
    bool used_shifter = false;
    std::uint8_t wait_count = 0;
  };

  struct exec_entry {
    std::uint64_t complete_at = 0;
    std::uint32_t rob_slot = no_slot;
    std::uint32_t seq = 0;
    std::uint8_t dest_preg = no_reg;
    bool broadcasts = false;
  };

  using lane_values = std::array<std::uint32_t, max_batch_lanes>;

  void reset_structures();

  /// One cycle of the engine, compiled for any width and for one lane
  /// (batch_backend::active()).
  template <bool one_lane>
  bool step();

  template <bool one_lane>
  void retire_stage();
  template <bool one_lane>
  void drain_store_buffer();
  template <bool one_lane>
  void broadcast_stage();
  template <bool one_lane>
  void schedule_stage();
  template <bool one_lane>
  void rename_stage();
  void complete_rob(std::uint32_t slot);
  void deliver_operand(std::size_t slot);
  std::uint64_t next_event_cycle() const noexcept;

  enum class rename_result : std::uint8_t {
    stall,
    accepted,
    accepted_stop,
  };

  /// Rename of one instruction at the front end's pc — the correct path
  /// against state_, or (while wrong_path_) the wrong path against the
  /// shadow spec_state_.
  template <bool one_lane>
  rename_result rename_one(int slot);

  // --- speculation (active only when spec_enabled_) --------------------
  /// Predicted next fetch index of the branch at `index`, with the
  /// predictor read-port activity; `taken` receives the direction.  The
  /// RSB is popped on the correct path and only peeked on the wrong one.
  std::size_t predict_next(const isa::instruction& ins, std::size_t index,
                           bool& taken);
  /// Correct-path branch: prediction, learning from the resolved outcome
  /// (`exec`, `actual_next`), and the start of a wrong-path episode on a
  /// mispredict.
  void predict_branch(const isa::instruction& ins, std::size_t index,
                      bool exec, std::size_t actual_next,
                      std::uint32_t rob_slot, std::uint32_t seq);
  /// Recovery flush at branch resolution: walks the ROB tail back to the
  /// mispredicted branch restoring RAT/free-list/ready state, purges
  /// younger RS/waiter/exec entries, and resumes correct-path fetch.
  void resolve_mispredict();
  void emit_bp_table(std::uint8_t port, std::uint32_t value);
  void emit_btb_port(std::uint8_t port, std::uint32_t value);
  bool rs_fits_units(const rs_entry& rs, int prf_ports, int alus_used,
                     bool alu0_used, bool lsu_used) const noexcept;
  template <bool one_lane>
  void issue_entry(rs_entry& rs, int alu_index);
  /// Makes the µop renamed into rs_[rs_slot] resident: busy bit,
  /// waiter-list subscriptions and (when nothing is outstanding) its
  /// ready-ring bit.
  void dispatch_to_rs(std::uint32_t rob_slot, std::size_t rs_slot);
  void add_exec(const exec_entry& ex);
  bool in_flight_empty() const noexcept {
    return exec_in_flight_ == 0 && pending_bcast_.empty();
  }
  std::uint8_t alloc_preg();

  /// One PRF read port driven with per-lane values (`values` points at a
  /// lane-major row).
  template <bool one_lane>
  void drive_prf_port(const std::uint32_t* values);

  /// Emission point whose value is lane-invariant (RAT tags, RS wakeup
  /// tags): the event is computed once and appended to every active
  /// lane's stream.
  void emit_all_lanes(component comp, std::uint8_t port,
                      std::uint32_t before, std::uint32_t after,
                      std::uint64_t at_cycle);

  program_image image_;
  const asmx::program* prog_ = nullptr;
  micro_arch_config config_;

  // Per-lane architectural state.
  std::vector<mem::memory> memory_;
  std::vector<mem::cache> dcache_;
  std::vector<cpu_state> state_;
  mem::cache icache_; // shared: the fetch stream is lane-invariant

  // Shared rename state.
  std::array<std::uint8_t, isa::num_registers> rat_{};
  std::vector<std::uint8_t> free_pregs_;
  std::vector<std::uint8_t> preg_ready_;
  std::uint32_t next_seq_ = 0;
  std::uint32_t flags_producer_slot_ = no_slot;
  bool frontend_done_ = false;
  std::uint64_t fetch_ready_ = 0;

  // Shared ROB/RS control + lane-major value planes.
  std::vector<rob_entry> rob_;
  std::size_t rob_head_ = 0;
  std::size_t rob_count_ = 0;
  std::vector<std::uint32_t> rob_value_;      // [slot * lanes + lane]
  std::vector<std::uint32_t> rob_store_addr_; // [slot * lanes + lane]
  std::vector<rs_entry> rs_;
  std::size_t rs_used_ = 0;
  /// [(slot * max_sources + src) * lanes + lane]
  std::vector<std::uint32_t> rs_src_value_;
  std::vector<std::uint32_t> rs_address_;     // [slot * lanes + lane]
  std::vector<std::uint32_t> rs_mem_word_;    // [slot * lanes + lane]
  std::vector<std::uint32_t> rs_sub_value_;   // [slot * lanes + lane]
  std::vector<std::uint32_t> rs_shift_value_; // [slot * lanes + lane]
  /// Per-RS-slot lane mask: lanes whose condition failed (select µop) —
  /// gates the datapath emissions of issue_entry, never the schedule.
  std::vector<std::uint64_t> rs_squash_;

  // Scheduler state: ready ring, waiter lists, completion wheel.
  std::uint64_t rs_busy_mask_ = 0;
  std::uint64_t ready_mask_ = 0;
  std::array<std::uint8_t, age_ring_size> age_to_slot_{};
  std::vector<std::vector<std::uint16_t>> preg_waiters_;
  std::vector<std::vector<std::uint8_t>> rob_flag_waiters_;
  std::array<std::vector<exec_entry>, age_ring_size> exec_wheel_;
  std::vector<exec_entry> exec_far_;
  std::size_t exec_in_flight_ = 0;
  std::vector<exec_entry> pending_bcast_;
  bool cycle_dirty_ = false;

  // Post-commit store buffer: shared ring control, lane-major addresses.
  std::size_t sb_head_ = 0;
  std::size_t sb_count_ = 0;
  std::vector<std::uint32_t> sb_addr_; // [entry * lanes + lane]

  // Shared structural unit state.
  std::uint64_t lsu_busy_until_ = 0;
  std::uint64_t mul_busy_until_ = 0;
  int prf_ports_used_this_cycle_ = 0;

  // Bus/latch state: per-lane where values differ (lane-major,
  // [port * lanes + lane]), shared where they cannot (rename/wakeup tags).
  std::vector<std::uint32_t> prf_port_state_;    // 8 ports
  std::vector<std::uint32_t> alu_latch_state_;   // 4 latches
  std::vector<std::uint32_t> cdb_state_;         // 4 buses
  std::vector<std::uint32_t> retire_port_state_; // 4 ports
  std::vector<std::uint32_t> mdr_state_;         // 1 per lane
  std::vector<std::uint32_t> align_buffer_state_; // 1 per lane
  std::array<std::uint32_t, 4> rat_port_state_{};
  std::array<std::uint32_t, 4> tag_bus_state_{};

  // Speculation: shared front-end control plus the per-lane shadow view
  // (registers/flags seeded from each lane's state at the mispredict).
  speculation_config spec_;
  branch_predictor predictor_;
  bool spec_enabled_ = false;
  bool wrong_path_ = false;      ///< front end is fetching the wrong path
  bool spec_fetch_done_ = false; ///< wrong-path fetch parked or ran off
  std::size_t spec_pc_ = 0;      ///< wrong-path fetch index
  std::uint32_t spec_branch_slot_ = no_slot; ///< mispredicted branch (ROB)
  std::uint32_t spec_branch_seq_ = 0;
  std::uint64_t spec_resolve_at_ = 0; ///< cycle the recovery flush runs
  /// Checkpointed flag producer (slot + seq; the seq detects a retired
  /// and reused slot).  The RAT needs no checkpoint: the flush restores
  /// it through the old_preg chain.
  std::uint32_t ckpt_flags_slot_ = no_slot;
  std::uint32_t ckpt_flags_seq_ = 0;
  std::vector<cpu_state> spec_state_; ///< per lane
  std::array<std::uint32_t, 2> bp_table_state_{};
  std::array<std::uint32_t, 2> btb_port_state_{};

  std::uint64_t cycle_ = 0;
  std::uint64_t renamed_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t multi_rename_cycles_ = 0;
  std::uint64_t mispredicts_ = 0;
  std::uint64_t wrong_path_renamed_ = 0;
  std::uint64_t idle_skipped_ = 0;
};

} // namespace usca::sim

#endif // USCA_SIM_OOO_BATCH_OOO_CORE_H
