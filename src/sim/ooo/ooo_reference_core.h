// The differential oracle of the out-of-order backend.
//
// Implements the OoO model described in ooo_core.h — same rename/ROB/RS/
// CDB structures, same select-µop predication, same speculation front end
// — with the original per-cycle linear scans instead of the production
// scheduler's data structures: the RS ready scan re-walks every slot per
// issue slot, wakeup re-walks every RS entry per CDB broadcast, CDB
// arbitration re-scans the in-flight list per lane, and every cycle is
// stepped (no idle skip).  It exists only to be an independent
// implementation: the differential engine matrix (tests/sim/
// differential_test.cpp, every engine shape and predictor setting) and
// the directed suites (ooo_equivalence_fuzz_test.cpp, the lane-vs-oracle
// AES batches of spec_equivalence_test.cpp) require the production
// engine's retirement order, architectural state and activity stream to
// equal this core's at every cycle.
//
// A per-trace core is a 1-lane engine, and the oracle is one too: a
// sim::batch_backend with exactly one lane, whose only lane is the leader
// (nothing is ever agreed or ejected).  make_backend() — the one factory
// at one lane — picks this core when ooo.scheduler == reference or
// USCA_OOO_REFERENCE=1; campaigns then run in groups of one.
#ifndef USCA_SIM_OOO_OOO_REFERENCE_CORE_H
#define USCA_SIM_OOO_OOO_REFERENCE_CORE_H

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

class ooo_reference_core final : public batch_backend {
public:
  explicit ooo_reference_core(asmx::program prog,
                              micro_arch_config config = cortex_a7_ooo());

  /// Shares an immutable program image instead of copying the program.
  /// Throws util::simulation_error when the ooo_config is structurally
  /// invalid (validate_ooo_config).  The config's scheduler field is
  /// ignored: this core always runs the reference scans.
  explicit ooo_reference_core(program_image image,
                              micro_arch_config config = cortex_a7_ooo());

  backend_kind kind() const noexcept override { return backend_kind::ooo; }

  void reset() override;
  void rebind(program_image image) override;
  void warm_caches() override;
  void run(std::uint64_t max_cycles = 50'000'000) override;
  bool step_cycle() override;

  cpu_state& state(std::size_t = 0) noexcept override { return state_; }
  const cpu_state& state(std::size_t = 0) const noexcept override {
    return state_;
  }
  mem::memory& memory(std::size_t = 0) noexcept override { return memory_; }
  const mem::memory& memory(std::size_t = 0) const noexcept override {
    return memory_;
  }
  const asmx::program& program() const noexcept override { return *prog_; }
  const micro_arch_config& config() const noexcept { return config_; }

  std::uint64_t cycles() const noexcept override { return cycle_; }
  std::uint64_t instructions_issued() const noexcept override {
    return renamed_;
  }
  std::uint64_t instructions_retired() const noexcept { return retired_; }
  std::uint64_t mispredicts() const noexcept { return mispredicts_; }
  std::uint64_t wrong_path_renamed() const noexcept {
    return wrong_path_renamed_;
  }
  const speculation_config& speculation() const noexcept { return spec_; }
  std::uint64_t multi_rename_cycles() const noexcept {
    return multi_rename_cycles_;
  }

  const mem::cache& icache() const noexcept { return icache_; }
  const mem::cache& dcache(std::size_t = 0) const noexcept { return dcache_; }

private:
  static constexpr std::uint8_t no_reg = 0xff;
  static constexpr std::uint32_t no_slot = 0xffffffffU;
  static constexpr std::size_t max_sources = 4;

  struct rob_entry {
    std::uint32_t seq = 0;         ///< rename order (age)
    std::uint8_t dest_arch = no_reg;
    std::uint8_t dest_preg = no_reg;
    std::uint8_t old_preg = no_reg; ///< freed when this entry retires
    bool completed = false;
    bool has_value = false; ///< drives a retire port when committing
    bool is_store = false;
    bool is_mark = false;
    bool is_halt = false;
    std::uint16_t mark_id = 0;
    std::uint32_t value = 0;      ///< result / store data
    std::uint32_t store_addr = 0; ///< drained through the store buffer
  };

  struct rs_entry {
    bool busy = false;
    std::uint32_t rob_slot = no_slot;
    std::uint32_t seq = 0;
    std::uint8_t n_src = 0;
    std::array<std::uint8_t, max_sources> src_preg{};  ///< no_reg = ready
    std::array<std::uint32_t, max_sources> src_value{};
    std::uint32_t flags_wait_slot = no_slot; ///< ROB slot of flag producer
    bool needs_alu0 = false;
    bool is_mul = false;
    bool uses_lsu = false; ///< competes for the LSU pipe (incl. squashed)
    bool is_load = false;
    bool is_store = false;
    bool is_subword = false;
    /// Condition-failed select µop: same unit/latency/CDB trip as the
    /// executed variant, no datapath events beyond the PRF reads.
    bool squashed = false;
    bool used_shifter = false;
    std::uint32_t address = 0;
    std::uint32_t mem_word = 0;   ///< MDR value (word containing address)
    std::uint32_t sub_value = 0;  ///< align-buffer value (sub-word ops)
    std::uint32_t shift_value = 0;
    std::uint32_t result = 0;
  };

  struct exec_entry {
    std::uint64_t complete_at = 0;
    std::uint32_t rob_slot = no_slot;
    std::uint32_t seq = 0;
    std::uint8_t dest_preg = no_reg;
    bool broadcasts = false; ///< consumes a CDB lane (dest-writing ops)
    std::uint32_t result = 0;
  };

  void reset_structures();

  // Pipeline stages (called youngest-last each cycle so that an
  // instruction renamed in cycle c issues no earlier than c+1).
  void retire_stage();
  void drain_store_buffer();
  void broadcast_stage();
  void schedule_stage();
  void rename_stage();

  enum class rename_result : std::uint8_t {
    stall,         ///< nothing accepted; the front end retries next cycle
    accepted,      ///< renamed; the group may continue this cycle
    accepted_stop, ///< renamed, but the group closes (serialize / redirect)
  };

  /// Architectural execution + rename bookkeeping of one instruction —
  /// on the correct path against state_, or (while wrong_path_) on the
  /// wrong path against the shadow spec_state_.
  rename_result rename_one(int slot);

  // --- speculation (active only when spec_enabled_) --------------------
  /// Predicted next fetch index of the branch at `index`, with the
  /// predictor read-port activity; `taken` receives the direction.
  std::size_t predict_next(const isa::instruction& ins, std::size_t index,
                           bool& taken);
  /// Correct-path branch: queries/updates the predictor, emits bp_table/
  /// btb_port activity, and starts a wrong-path episode on a mispredict.
  /// `actual_next` is the architecturally resolved next pc.
  void predict_branch(const isa::instruction& ins, std::size_t pc_index,
                      bool exec, std::size_t actual_next,
                      std::uint32_t rob_slot, std::uint32_t seq);
  /// Recovery flush at branch resolution: walks the ROB tail back to the
  /// mispredicted branch restoring RAT/free-list/ready state, purges
  /// younger RS/exec entries, and resumes correct-path fetch.
  void resolve_mispredict();
  void emit_bp_table(std::uint8_t lane, std::uint32_t value);
  void emit_btb_port(std::uint8_t lane, std::uint32_t value);

  bool rs_ready(const rs_entry& rs) const noexcept;
  bool rs_fits_units(const rs_entry& rs, int prf_ports, int alus_used,
                     bool alu0_used, bool lsu_used) const noexcept;
  /// `alu_index` is the ALU the select stage bound this op to (0 or 1;
  /// meaningless for LSU-bound ops).
  void issue_entry(rs_entry& rs, int alu_index);
  void complete_rob(std::uint32_t slot);
  /// Inserts the renamed µop into the first free reservation station.
  void dispatch_to_rs(rs_entry& rs, std::uint32_t rob_slot);
  std::uint8_t alloc_preg();

  void drive_prf_port(std::uint32_t value);

  program_image image_;
  const asmx::program* prog_ = nullptr;
  micro_arch_config config_;
  mem::memory memory_;
  mem::cache icache_;
  mem::cache dcache_;
  cpu_state state_;

  // Rename state.
  std::array<std::uint8_t, isa::num_registers> rat_{};
  std::vector<std::uint8_t> free_pregs_; ///< stack of free physical regs
  std::vector<std::uint8_t> preg_ready_; ///< value produced (timing only)
  std::uint32_t next_seq_ = 0;
  std::uint32_t flags_producer_slot_ = no_slot;
  bool frontend_done_ = false;
  std::uint64_t fetch_ready_ = 0;

  // Reorder buffer (circular) + reservation stations + in-flight ops.
  std::vector<rob_entry> rob_;
  std::size_t rob_head_ = 0;
  std::size_t rob_count_ = 0;
  std::vector<rs_entry> rs_;
  std::size_t rs_used_ = 0;
  std::vector<exec_entry> exec_;

  // Post-commit store buffer (addresses only; data already architectural).
  std::vector<std::uint32_t> store_buffer_;

  // Structural unit state.
  std::uint64_t lsu_busy_until_ = 0;
  std::uint64_t mul_busy_until_ = 0;
  int prf_ports_used_this_cycle_ = 0;

  // Micro-architectural bus/latch state (leakage sources).
  std::array<std::uint32_t, 8> prf_port_state_{};
  std::array<std::uint32_t, 4> alu_latch_state_{};
  std::array<std::uint32_t, 4> rat_port_state_{};
  std::array<std::uint32_t, 4> tag_bus_state_{};
  std::array<std::uint32_t, 4> cdb_state_{};
  std::array<std::uint32_t, 4> retire_port_state_{};
  std::uint32_t mdr_state_ = 0;
  std::uint32_t align_buffer_state_ = 0;

  // Speculation state (inert under the default perfect predictor).
  speculation_config spec_;
  branch_predictor predictor_;
  bool spec_enabled_ = false;
  bool wrong_path_ = false;      ///< front end is fetching the wrong path
  bool spec_fetch_done_ = false; ///< wrong-path fetch parked or ran off
  std::size_t spec_pc_ = 0;      ///< wrong-path fetch index
  std::uint32_t spec_branch_slot_ = no_slot; ///< mispredicted branch (ROB)
  std::uint32_t spec_branch_seq_ = 0;
  std::uint64_t spec_resolve_at_ = 0; ///< cycle the recovery flush runs
  /// Checkpointed flag-producer (slot + seq; the seq validates that the
  /// slot has not retired and been reused by the time the flush restores
  /// it).  The RAT needs no checkpoint: the ROB walk restores it through
  /// the old_preg chain.
  std::uint32_t ckpt_flags_slot_ = no_slot;
  std::uint32_t ckpt_flags_seq_ = 0;
  /// Shadow register view the wrong path executes against (seeded from
  /// the architectural state at the mispredict).  Wrong-path stores
  /// update nothing (no forwarding to younger wrong-path loads).
  cpu_state spec_state_;
  std::array<std::uint32_t, 2> bp_table_state_{};
  std::array<std::uint32_t, 2> btb_port_state_{};

  std::uint64_t cycle_ = 0;
  std::uint64_t renamed_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t multi_rename_cycles_ = 0;
  std::uint64_t mispredicts_ = 0;
  std::uint64_t wrong_path_renamed_ = 0;
};

} // namespace usca::sim

#endif // USCA_SIM_OOO_OOO_REFERENCE_CORE_H
