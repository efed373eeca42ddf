#include "sim/ooo/ooo_reference_core.h"

#include <algorithm>

#include "sim/alu.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::sim {

namespace {

using isa::instruction;
using isa::opcode;
using isa::reg;

} // namespace

ooo_reference_core::ooo_reference_core(asmx::program prog,
                                       micro_arch_config config)
    : ooo_reference_core(program_image(std::move(prog)), config) {}

ooo_reference_core::ooo_reference_core(program_image image,
                                       micro_arch_config config)
    : batch_backend(1),
      image_(std::move(image)),
      prog_(&image_.prog()),
      config_(config),
      icache_(config.icache),
      dcache_(config.dcache) {
  validate_ooo_config(config_);
  spec_ = effective_speculation(config_);
  spec_enabled_ = spec_.predictor != predictor_kind::perfect;
  if (spec_enabled_) {
    predictor_.configure(spec_);
  }
  memory_.load(prog_->data_base, prog_->data);

  const ooo_config& ooo = config_.ooo;
  static const telem::gauge reference_mode{"sim.ooo.reference_mode", "flag",
                                           "sim"};
  reference_mode.set(1);
  rob_.resize(static_cast<std::size_t>(ooo.rob_entries));
  rs_.resize(static_cast<std::size_t>(ooo.rs_entries));
  exec_.reserve(rob_.size());
  free_pregs_.reserve(static_cast<std::size_t>(ooo.prf_size));
  preg_ready_.resize(static_cast<std::size_t>(ooo.prf_size));
  store_buffer_.reserve(static_cast<std::size_t>(ooo.store_buffer_entries));
  reset_structures();
}

void ooo_reference_core::reset_structures() {
  for (std::size_t r = 0; r < isa::num_registers; ++r) {
    rat_[r] = static_cast<std::uint8_t>(r);
  }
  free_pregs_.clear();
  // Pop order is descending so allocation order is deterministic and
  // dense: 16, 17, 18, ...
  for (int p = config_.ooo.prf_size - 1; p >= isa::num_registers; --p) {
    free_pregs_.push_back(static_cast<std::uint8_t>(p));
  }
  std::fill(preg_ready_.begin(), preg_ready_.end(), std::uint8_t{1});
  next_seq_ = 0;
  flags_producer_slot_ = no_slot;
  frontend_done_ = false;
  fetch_ready_ = 0;

  for (rob_entry& e : rob_) {
    e = rob_entry{};
  }
  rob_head_ = 0;
  rob_count_ = 0;
  for (rs_entry& e : rs_) {
    e = rs_entry{};
  }
  rs_used_ = 0;
  exec_.clear();
  store_buffer_.clear();

  lsu_busy_until_ = 0;
  mul_busy_until_ = 0;
  prf_ports_used_this_cycle_ = 0;

  prf_port_state_.fill(0);
  alu_latch_state_.fill(0);
  rat_port_state_.fill(0);
  tag_bus_state_.fill(0);
  cdb_state_.fill(0);
  retire_port_state_.fill(0);
  mdr_state_ = 0;
  align_buffer_state_ = 0;

  wrong_path_ = false;
  spec_fetch_done_ = false;
  spec_pc_ = 0;
  spec_branch_slot_ = no_slot;
  spec_branch_seq_ = 0;
  spec_resolve_at_ = 0;
  ckpt_flags_slot_ = no_slot;
  ckpt_flags_seq_ = 0;
  spec_state_ = cpu_state{};
  bp_table_state_.fill(0);
  btb_port_state_.fill(0);
  if (spec_enabled_) {
    predictor_.reset();
  }

  cycle_ = 0;
  renamed_ = 0;
  retired_ = 0;
  multi_rename_cycles_ = 0;
  mispredicts_ = 0;
  wrong_path_renamed_ = 0;
  record_activity_ = record_default_;
  marks_.clear();
  activity_[0].clear();
}

void ooo_reference_core::reset() {
  memory_.reset();
  memory_.load(prog_->data_base, prog_->data);
  icache_.reset();
  dcache_.reset();
  state_ = cpu_state{};
  reset_structures();
}

void ooo_reference_core::rebind(program_image image) {
  image_ = std::move(image);
  prog_ = &image_.prog();
  reset();
}

void ooo_reference_core::warm_caches() {
  icache_.warm(prog_->code_base, prog_->code.size() * 4 + 4);
  if (!prog_->data.empty()) {
    dcache_.warm(prog_->data_base, prog_->data.size());
  }
}

void ooo_reference_core::run(std::uint64_t max_cycles) {
  const std::uint64_t start_cycle = cycle_;
  const std::uint64_t start_mispredicts = mispredicts_;
  const std::uint64_t start_wrong_path = wrong_path_renamed_;
  const std::uint64_t limit = cycle_ + max_cycles;
  while (!state_.halted) {
    if (cycle_ >= limit) {
      throw util::simulation_error(
          "ooo reference core exceeded the cycle budget");
    }
    step_cycle();
  }
  // Per-cycle quantities are accumulated in plain members above and
  // flushed to telemetry once per run, never from the cycle loop.
  static const telem::counter cycles{"sim.ooo.cycles", "cycles", "sim"};
  cycles.add(cycle_ - start_cycle);
  if (spec_enabled_) {
    static const telem::counter mispredicted{"sim.ooo.mispredicts",
                                             "branches", "sim"};
    static const telem::counter wrong_uops{"sim.ooo.wrong_path_uops",
                                           "uops", "sim"};
    mispredicted.add(mispredicts_ - start_mispredicts);
    wrong_uops.add(wrong_path_renamed_ - start_wrong_path);
  }
}

// ---------------------------------------------------------------------------
// Event plumbing
// ---------------------------------------------------------------------------

void ooo_reference_core::drive_prf_port(std::uint32_t value) {
  const int port = prf_ports_used_this_cycle_++;
  if (port >= static_cast<int>(prf_port_state_.size())) {
    return; // schedule_stage bounds issue by the port budget
  }
  const auto lane = static_cast<std::uint8_t>(port);
  emit(0, component::prf_read_port, lane, prf_port_state_[lane], value,
       cycle_);
  prf_port_state_[lane] = value;
}

// ---------------------------------------------------------------------------
// Retirement + store buffer
// ---------------------------------------------------------------------------

void ooo_reference_core::retire_stage() {
  int retired_now = 0;
  while (rob_count_ > 0 && retired_now < config_.ooo.retire_width &&
         !state_.halted) {
    rob_entry& head = rob_[rob_head_];
    if (!head.completed) {
      break;
    }
    if (head.is_store &&
        store_buffer_.size() >=
            static_cast<std::size_t>(config_.ooo.store_buffer_entries)) {
      break; // store buffer full: commit stalls
    }

    if (head.is_store) {
      store_buffer_.push_back(head.store_addr);
    }
    if (head.is_mark) {
      marks_.push_back(mark_stamp{head.mark_id, cycle_, multi_rename_cycles_});
      if (has_cutoff_mark_ && head.mark_id == cutoff_mark_) {
        // Safe cut: marks rename only once the ROB is empty, so every
        // event of an older instruction is already recorded (with a
        // cycle stamp below this one) when the mark commits.
        record_activity_ = false;
      }
    }
    if (head.is_halt) {
      state_.halted = true;
    }
    if (head.has_value) {
      // Committed values are driven onto the retirement ports — the
      // "retirement channel" of the covert/side-channel literature.
      const auto lane = static_cast<std::uint8_t>(
          retired_now % static_cast<int>(retire_port_state_.size()));
      emit(0, component::rob_retire_port, lane, retire_port_state_[lane],
           head.value, cycle_);
      retire_port_state_[lane] = head.value;
    }
    if (head.dest_arch != no_reg && head.old_preg != no_reg) {
      free_pregs_.push_back(head.old_preg);
    }
    if (flags_producer_slot_ == static_cast<std::uint32_t>(rob_head_)) {
      flags_producer_slot_ = no_slot; // completed by definition
    }

    head = rob_entry{};
    rob_head_ = (rob_head_ + 1) % rob_.size();
    --rob_count_;
    ++retired_;
    ++retired_now;
  }
}

void ooo_reference_core::drain_store_buffer() {
  if (store_buffer_.empty()) {
    return;
  }
  // One store per cycle leaves the buffer for the D-cache (timing only —
  // the architectural write happened at rename).
  dcache_.access(store_buffer_.front());
  store_buffer_.erase(store_buffer_.begin());
}

// ---------------------------------------------------------------------------
// Completion broadcast (CDB)
// ---------------------------------------------------------------------------

void ooo_reference_core::complete_rob(std::uint32_t slot) {
  rob_[slot].completed = true;
  for (rs_entry& rs : rs_) {
    if (rs.busy && rs.flags_wait_slot == slot) {
      rs.flags_wait_slot = no_slot;
    }
  }
}

void ooo_reference_core::broadcast_stage() {
  // Non-broadcasting completions (stores, compares without a destination)
  // finish without arbitrating for a CDB lane.
  for (std::size_t i = 0; i < exec_.size();) {
    if (!exec_[i].broadcasts && exec_[i].complete_at <= cycle_) {
      complete_rob(exec_[i].rob_slot);
      exec_[i] = exec_.back();
      exec_.pop_back();
    } else {
      ++i;
    }
  }

  // Dest-writing completions: oldest-first, bounded by the CDB width.
  for (int lane = 0; lane < config_.ooo.cdb_width; ++lane) {
    std::size_t best = exec_.size();
    for (std::size_t i = 0; i < exec_.size(); ++i) {
      if (exec_[i].broadcasts && exec_[i].complete_at <= cycle_ &&
          (best == exec_.size() || exec_[i].seq < exec_[best].seq)) {
        best = i;
      }
    }
    if (best == exec_.size()) {
      break;
    }
    const exec_entry done = exec_[best];
    exec_[best] = exec_.back();
    exec_.pop_back();

    const auto bus = static_cast<std::uint8_t>(
        lane % static_cast<int>(cdb_state_.size()));
    // The result value crosses the CDB to the PRF and every RS entry.
    emit(0, component::cdb, bus, cdb_state_[bus], done.result, cycle_);
    cdb_state_[bus] = done.result;
    // The destination tag travels the wakeup network in parallel.
    emit(0, component::rs_tag_bus, bus, tag_bus_state_[bus], done.dest_preg,
         cycle_);
    tag_bus_state_[bus] = done.dest_preg;

    preg_ready_[done.dest_preg] = 1;
    for (rs_entry& rs : rs_) {
      if (!rs.busy) {
        continue;
      }
      for (std::size_t s = 0; s < rs.n_src; ++s) {
        if (rs.src_preg[s] == done.dest_preg) {
          rs.src_preg[s] = no_reg;
        }
      }
    }
    complete_rob(done.rob_slot);
  }
}

// ---------------------------------------------------------------------------
// Select + issue
// ---------------------------------------------------------------------------

bool ooo_reference_core::rs_ready(const rs_entry& rs) const noexcept {
  for (std::size_t s = 0; s < rs.n_src; ++s) {
    if (rs.src_preg[s] != no_reg && !preg_ready_[rs.src_preg[s]]) {
      return false;
    }
  }
  if (rs.flags_wait_slot != no_slot && !rob_[rs.flags_wait_slot].completed) {
    return false;
  }
  return true;
}

bool ooo_reference_core::rs_fits_units(const rs_entry& rs, int prf_ports,
                                       int alus_used, bool alu0_used,
                                       bool lsu_used) const noexcept {
  if (prf_ports_used_this_cycle_ + static_cast<int>(rs.n_src) > prf_ports) {
    return false;
  }
  if (rs.uses_lsu) {
    return !(lsu_used || lsu_busy_until_ > cycle_);
  }
  if (rs.is_mul && mul_busy_until_ > cycle_) {
    return false;
  }
  if (alus_used >= config_.alu_count) {
    return false;
  }
  return !(rs.needs_alu0 && alu0_used);
}

void ooo_reference_core::issue_entry(rs_entry& rs, int alu_index) {
  // PRF read ports: every register operand value crosses a read port on
  // its way to the FU.  Unlike the A7's short-load RF ports these drive
  // the long issue/bypass wires, so they are a leakage source (weighted
  // nonzero by the synthesizer).
  for (std::size_t s = 0; s < rs.n_src; ++s) {
    drive_prf_port(rs.src_value[s]);
  }

  // Squashed (condition-failed) ops take the exact same trip — unit
  // occupancy, latency, D-cache probe, CDB slot — as their executed
  // variant, so the schedule is independent of condition outcomes; they
  // just touch no datapath structure beyond the PRF reads above.
  std::uint64_t complete_at;
  if (rs.is_load) {
    const int penalty = dcache_.access(rs.address);
    complete_at =
        cycle_ + static_cast<std::uint64_t>(config_.lsu_latency + penalty);
    if (!config_.lsu_pipelined) {
      lsu_busy_until_ = complete_at;
    } else if (penalty > 0) {
      lsu_busy_until_ = cycle_ + static_cast<std::uint64_t>(penalty);
    }
    if (!rs.squashed) {
      emit(0, component::mdr, 0, mdr_state_, rs.mem_word, cycle_ + 2);
      mdr_state_ = rs.mem_word;
      if (rs.is_subword && config_.has_align_buffer) {
        emit(0, component::align_buffer, 0, align_buffer_state_,
             rs.sub_value, cycle_ + 3);
        align_buffer_state_ = rs.sub_value;
      }
    }
  } else if (rs.is_store) {
    // Address/data move into the store queue; the D-cache access happens
    // at drain, after commit.
    complete_at = cycle_ + 1;
    if (!rs.squashed) {
      emit(0, component::mdr, 0, mdr_state_, rs.mem_word, cycle_ + 2);
      mdr_state_ = rs.mem_word;
      if (rs.is_subword && config_.has_align_buffer) {
        emit(0, component::align_buffer, 0, align_buffer_state_,
             rs.sub_value, cycle_ + 3);
        align_buffer_state_ = rs.sub_value;
      }
    }
  } else if (rs.is_mul) {
    complete_at = cycle_ + static_cast<std::uint64_t>(config_.mul_latency);
    if (!config_.mul_pipelined) {
      mul_busy_until_ = complete_at;
    }
    if (!rs.squashed) {
      // The multiplier lives on ALU0: operands latch into its input flops.
      emit(0, component::alu_in_latch, 0, alu_latch_state_[0],
           rs.src_value[0], cycle_ + 1);
      alu_latch_state_[0] = rs.src_value[0];
      if (rs.n_src > 1) {
        emit(0, component::alu_in_latch, 1, alu_latch_state_[1],
             rs.src_value[1], cycle_ + 1);
        alu_latch_state_[1] = rs.src_value[1];
      }
      emit_weight(0, component::alu_out, 0, rs.result, complete_at - 1);
    }
  } else {
    std::uint64_t latency = 1;
    if (rs.used_shifter) {
      latency += static_cast<std::uint64_t>(config_.shift_extra_latency);
      if (!rs.squashed) {
        emit_weight(0, component::shift_buffer, 0, rs.shift_value,
                    cycle_ + 1);
      }
    }
    complete_at = cycle_ + latency;
    if (!rs.squashed) {
      const auto base_lane = static_cast<std::uint8_t>(alu_index * 2);
      if (rs.n_src > 0) {
        emit(0, component::alu_in_latch, base_lane,
             alu_latch_state_[base_lane], rs.src_value[0], cycle_ + 1);
        alu_latch_state_[base_lane] = rs.src_value[0];
      }
      if (rs.n_src > 1) {
        emit(0, component::alu_in_latch,
             static_cast<std::uint8_t>(base_lane + 1),
             alu_latch_state_[static_cast<std::size_t>(base_lane + 1)],
             rs.src_value[1], cycle_ + 1);
        alu_latch_state_[static_cast<std::size_t>(base_lane + 1)] =
            rs.src_value[1];
      }
      emit_weight(0, component::alu_out,
                  static_cast<std::uint8_t>(alu_index), rs.result,
                  complete_at);
    }
  }

  exec_entry ex;
  ex.complete_at = complete_at;
  ex.rob_slot = rs.rob_slot;
  ex.seq = rs.seq;
  ex.dest_preg = rob_[rs.rob_slot].dest_preg;
  ex.broadcasts = ex.dest_preg != no_reg;
  ex.result = rs.result;
  exec_.push_back(ex);

  rs.busy = false;
  --rs_used_;
}

void ooo_reference_core::schedule_stage() {
  prf_ports_used_this_cycle_ = 0;
  // PRF read-port budget: 2 per issue slot, but never below the 4 ports
  // the widest µop consumes (a predicated mla reads rn, rm, ra and the
  // old destination) — an issue_width-1 core must still be able to issue
  // it.
  const int prf_ports =
      std::min(std::max(4, 2 * config_.issue_width),
               static_cast<int>(prf_port_state_.size()));
  int issued = 0;
  int alus_used = 0;
  bool alu0_used = false;
  bool lsu_used = false;

  while (issued < config_.issue_width && rs_used_ > 0) {
    // Oldest-first select among ready entries that fit the free units.
    rs_entry* pick = nullptr;
    for (rs_entry& rs : rs_) {
      if (!rs.busy || !rs_ready(rs)) {
        continue;
      }
      if (!rs_fits_units(rs, prf_ports, alus_used, alu0_used, lsu_used)) {
        continue;
      }
      if (pick == nullptr || rs.seq < pick->seq) {
        pick = &rs;
      }
    }
    if (pick == nullptr) {
      break;
    }
    int alu_index = 0;
    if (pick->uses_lsu) {
      lsu_used = true;
    } else {
      ++alus_used;
      // ALU binding mirrors the in-order slot rule: ALU0 first (it is
      // the only one with the shifter/multiplier), then ALU1.  Lanes are
      // modelled for two ALUs; further units alias ALU1's latches.
      if (pick->needs_alu0 || !alu0_used) {
        alu_index = 0;
        alu0_used = true;
      } else {
        alu_index = 1;
      }
    }
    issue_entry(*pick, alu_index);
    ++issued;
  }
}

// ---------------------------------------------------------------------------
// Rename: in-order front end, architectural execution
// ---------------------------------------------------------------------------

void ooo_reference_core::dispatch_to_rs(rs_entry& rs,
                                        std::uint32_t rob_slot) {
  rs.busy = true;
  rs.rob_slot = rob_slot;
  for (rs_entry& free_slot : rs_) {
    if (!free_slot.busy) {
      free_slot = rs;
      ++rs_used_;
      return;
    }
  }
  // unreachable: rename_one checks rs_used_ < rs_.size()
}

std::uint8_t ooo_reference_core::alloc_preg() {
  const std::uint8_t p = free_pregs_.back();
  free_pregs_.pop_back();
  preg_ready_[p] = 0;
  return p;
}

ooo_reference_core::rename_result ooo_reference_core::rename_one(int slot) {
  // The wrong path renames through here too, against the shadow register
  // view: it never writes memory, never trains the predictor, and parks
  // at a mark/halt (serializing µops wait for an empty machine, which the
  // unresolved branch makes impossible).
  const bool wrong = wrong_path_;
  cpu_state& st = wrong ? spec_state_ : state_;
  std::size_t& pc = wrong ? spec_pc_ : state_.pc;
  const std::size_t index = pc;
  const instruction& ins = prog_->code[index];
  const bool serializing = ins.op == opcode::mark || ins.op == opcode::halt;

  // All structural stalls are checked before any architectural effect so
  // that a stalled instruction re-renames cleanly next cycle.
  if (serializing && wrong) {
    spec_fetch_done_ = true;
    return rename_result::stall;
  }
  if (serializing &&
      (rob_count_ > 0 || slot > 0 || !exec_.empty() || rs_used_ > 0)) {
    return rename_result::stall; // marks/halt drain the machine first
  }
  if (rob_count_ >= rob_.size() || rs_used_ >= rs_.size() ||
      free_pregs_.empty()) {
    return rename_result::stall;
  }

  // Fetch: the I-cache sees one access per renamed instruction, on the
  // wrong path too.
  const int penalty = icache_.access(prog_->address_of(index));
  if (penalty > 0) {
    fetch_ready_ = cycle_ + static_cast<std::uint64_t>(penalty);
    return rename_result::stall;
  }

  const auto rob_slot =
      static_cast<std::uint32_t>((rob_head_ + rob_count_) % rob_.size());
  rob_entry entry;
  entry.seq = next_seq_;

  const bool exec = isa::condition_passes(ins.cond, st.f);
  std::size_t next_pc = index + 1;

  const auto read = [&st](reg r) { return st.reg(r); };
  const auto rename_dest = [&](reg rd, std::uint32_t value) {
    entry.dest_arch = isa::index_of(rd);
    entry.old_preg = rat_[entry.dest_arch];
    entry.dest_preg = alloc_preg();
    rat_[entry.dest_arch] = entry.dest_preg;
    entry.value = value;
    entry.has_value = true;
    // RAT write port: the new tag replaces the old mapping.
    const auto lane = static_cast<std::uint8_t>(
        slot % static_cast<int>(rat_port_state_.size()));
    emit(0, component::rat_port, lane, rat_port_state_[lane],
         entry.dest_preg, cycle_);
    rat_port_state_[lane] = entry.dest_preg;
  };
  // bl's link value is known at rename.
  const auto rename_link = [&] {
    const std::uint32_t link = prog_->address_of(index + 1);
    rename_dest(reg::lr, link);
    preg_ready_[entry.dest_preg] = 1;
    st.set_reg(reg::lr, link);
  };

  // RS-bound instruction under construction.
  rs_entry rs;
  rs.seq = entry.seq;
  bool to_rs = false;
  bool redirected = false;
  const auto add_src = [&](reg r) {
    const std::uint8_t preg = rat_[isa::index_of(r)];
    rs.src_preg[rs.n_src] = preg_ready_[preg] ? no_reg : preg;
    rs.src_value[rs.n_src] = st.reg(r);
    ++rs.n_src;
  };
  const auto wait_flags = [&] {
    if (flags_producer_slot_ != no_slot &&
        !rob_[flags_producer_slot_].completed) {
      rs.flags_wait_slot = flags_producer_slot_;
    }
  };

  // --- simulator pseudo-ops ------------------------------------------------
  if (ins.op == opcode::mark) {
    entry.is_mark = true;
    entry.mark_id = ins.imm16;
    entry.completed = true;
    pc = next_pc;
  } else if (ins.op == opcode::halt) {
    entry.is_halt = true;
    entry.completed = true;
    // pc intentionally left on the halt: the machine stops at commit.
  } else if (isa::is_nop(ins)) {
    // The canonical nop renames (it occupies a ROB slot) but touches no
    // rename/issue datapath: the OoO engine does not reuse the A7's
    // bus-zeroizing nop implementation.
    entry.completed = true;
    pc = next_pc;
  } else if (isa::is_branch(ins) && wrong) {
    // Wrong-path branches steer wrong-path fetch by prediction alone:
    // read-only predictor queries (tables learn nothing from a path that
    // never resolves) and no nested checkpoints — the one in-flight
    // mispredict flushes everything younger than itself anyway.
    bool taken = true;
    next_pc = predict_next(ins, index, taken);
    if (taken && ins.op == opcode::bl) {
      rename_link();
    }
    entry.completed = true;
    pc = next_pc;
  } else if (isa::is_branch(ins)) {
    // Branches resolve at rename (the perfect-prediction analogue of the
    // in-order model); bl's link value is known immediately.  Under a
    // real predictor the resolved outcome is compared against the
    // prediction below: a mispredict leaves this entry incomplete and
    // sends the front end down the predicted (wrong) path until
    // resolve_mispredict() flushes it.
    if (ins.op == opcode::bx) {
      const std::uint32_t target = read(ins.op2.rm);
      if (exec) {
        const auto target_index = prog_->index_of_address(target);
        if (!target_index) {
          // Return past the outermost frame: the front end stops and the
          // machine drains to a halt (no speculation on the drain —
          // wrong-path fetch past the program's end is not modelled).
          frontend_done_ = true;
          entry.completed = true;
          entry.is_halt = true;
          rob_[rob_slot] = entry;
          ++rob_count_;
          ++next_seq_;
          ++renamed_;
          return rename_result::accepted_stop;
        }
        next_pc = *target_index;
      }
    } else if (exec) {
      if (ins.op == opcode::bl) {
        rename_link();
      }
      next_pc = static_cast<std::size_t>(
          static_cast<std::int64_t>(index) + 1 + ins.branch_offset);
    }
    if (spec_enabled_) [[unlikely]] {
      predict_branch(ins, index, exec, next_pc, rob_slot, entry.seq);
    }
    redirected = next_pc != index + 1;
    if (redirected && !config_.perfect_branch_prediction) {
      fetch_ready_ =
          cycle_ + 1 +
          static_cast<std::uint64_t>(config_.branch_mispredict_penalty);
    }
    // A mispredicted branch stays incomplete until the recovery flush:
    // retirement stalls at it, so no wrong-path µop can ever commit.
    entry.completed = !wrong_path_;
    pc = next_pc;
  } else if (isa::is_memory(ins)) {
    add_src(ins.mem.base);
    const std::uint32_t base = read(ins.mem.base);
    std::uint32_t offset = ins.mem.offset_imm;
    if (ins.mem.reg_offset) {
      add_src(ins.mem.offset_reg);
      offset = read(ins.mem.offset_reg) << ins.mem.offset_shift;
    }
    const std::uint32_t address =
        ins.mem.subtract ? base - offset : base + offset;
    rs.address = address;
    rs.uses_lsu = true;
    rs.is_subword = isa::is_subword(ins);
    if (isa::reads_flags(ins)) {
      wait_flags(); // predicated memory ops schedule behind the flags
    }

    // Predication on an OoO core is a select µop: the old destination is
    // a real source, a new physical register is written, and the LSU trip
    // happens either way — the schedule cannot depend on the condition's
    // outcome (only the datapath events can).
    rs.squashed = !exec;
    if (isa::is_load(ins)) {
      if (ins.cond != isa::condition::al) {
        add_src(ins.rd); // select µop reads the old destination
      }
      std::uint32_t value = read(ins.rd); // kept on a failed condition
      if (exec) {
        // Loads read real memory, which already holds every older store
        // (perfect store-to-load forwarding).  A wrong-path address is
        // arbitrary, so wrong-path loads force alignment rather than
        // fault the simulator.
        switch (ins.op) {
        case opcode::ldr:
          value = memory_.read32(wrong ? address & ~3U : address);
          break;
        case opcode::ldrb:
          value = memory_.read8(address);
          break;
        case opcode::ldrh:
          value = memory_.read16(wrong ? address & ~1U : address);
          break;
        default:
          break;
        }
        rs.mem_word = memory_.containing_word(address);
      }
      rename_dest(ins.rd, value);
      st.set_reg(ins.rd, value);
      rs.is_load = true;
      rs.result = value;
      rs.sub_value = value;
    } else {
      const std::uint32_t data = read(ins.rd);
      add_src(ins.rd); // store data is a register source
      if (exec) {
        // Wrong-path stores write nothing — not memory, not a forwarding
        // buffer (younger wrong-path loads see stale memory; documented
        // simplification).  The MDR still observes the target word.
        if (!wrong) {
          switch (ins.op) {
          case opcode::str:
            memory_.write32(address, data);
            break;
          case opcode::strb:
            memory_.write8(address, static_cast<std::uint8_t>(data));
            break;
          case opcode::strh:
            memory_.write16(address, static_cast<std::uint16_t>(data));
            break;
          default:
            break;
          }
        }
        rs.mem_word = memory_.containing_word(address);
        rs.sub_value =
            ins.op == opcode::strb ? (data & 0xffU) : (data & 0xffffU);
      }
      rs.is_store = true;
      rs.result = data;
      // A squashed store still occupies its store-buffer slot at commit
      // (the drain probes the computed address; memory is untouched).
      entry.is_store = true;
      entry.store_addr = address;
      entry.value = data;
      entry.has_value = true;
    }
    to_rs = true;
    pc = next_pc;
  } else if (ins.op == opcode::mul || ins.op == opcode::mla) {
    add_src(ins.rn);
    add_src(ins.op2.rm);
    std::uint32_t acc = 0;
    if (ins.op == opcode::mla) {
      add_src(ins.ra);
      acc = read(ins.ra);
    }
    if (isa::reads_flags(ins)) {
      wait_flags();
    }
    if (ins.cond != isa::condition::al) {
      add_src(ins.rd); // select µop reads the old destination
    }
    rs.is_mul = true;
    rs.needs_alu0 = true;
    rs.squashed = !exec;
    const std::uint32_t result =
        exec ? read(ins.rn) * read(ins.op2.rm) + acc : read(ins.rd);
    rename_dest(ins.rd, result);
    st.set_reg(ins.rd, result);
    if (ins.set_flags) {
      if (exec) {
        st.f.n = (result >> 31) != 0;
        st.f.z = result == 0;
      }
      // The flag rename happens either way: younger flag readers wait on
      // this µop independent of the condition's outcome.
      flags_producer_slot_ = rob_slot;
    }
    rs.result = result;
    to_rs = true;
    pc = next_pc;
  } else {
    // Data processing (incl. movw/movt and standalone shifts).
    const bool has_rn = !(ins.op == opcode::mov || ins.op == opcode::mvn ||
                          ins.op == opcode::movw || ins.op == opcode::movt);
    std::uint32_t rn_value = 0;
    if (has_rn) {
      add_src(ins.rn);
      rn_value = read(ins.rn);
    }

    std::uint32_t result = 0;
    alu_result dp{};
    bool writes_result = true;
    bool flags_op = false;
    if (ins.op == opcode::movw) {
      result = ins.imm16;
    } else if (ins.op == opcode::movt) {
      add_src(ins.rd);
      result = (read(ins.rd) & 0xffffU) |
               (static_cast<std::uint32_t>(ins.imm16) << 16);
    } else {
      const operand2_value op2 = eval_operand2(ins, read, st.f.c);
      if (ins.op2.k == isa::operand2::kind::reg_shifted) {
        add_src(ins.op2.rm);
        if (ins.op2.shift.by_register) {
          add_src(ins.op2.shift.amount_reg);
        }
      }
      rs.used_shifter = op2.used_shifter;
      rs.shift_value = op2.value;
      rs.needs_alu0 = op2.used_shifter;
      dp = execute_dp(ins.op, rn_value, op2.value, op2.carry, st.f);
      result = dp.value;
      writes_result = dp.writes_result;
      flags_op = isa::writes_flags(ins);
    }

    if (isa::reads_flags(ins)) {
      wait_flags();
    }
    // Select-µop predication (see the memory path): old destination as a
    // source, destination and flag renames independent of the outcome.
    rs.squashed = !exec;
    if (writes_result) {
      if (ins.cond != isa::condition::al && ins.op != opcode::movt) {
        add_src(ins.rd);
      }
      const std::uint32_t committed = exec ? result : read(ins.rd);
      rename_dest(ins.rd, committed);
      st.set_reg(ins.rd, committed);
      rs.result = committed;
    }
    if (flags_op) {
      if (exec) {
        st.f = dp.f;
      }
      flags_producer_slot_ = rob_slot;
    }
    to_rs = true;
    pc = next_pc;
  }

  rob_[rob_slot] = entry;
  ++rob_count_;
  if (to_rs) {
    dispatch_to_rs(rs, rob_slot);
  }
  ++next_seq_;
  ++(wrong ? wrong_path_renamed_ : renamed_);

  if (pc >= prog_->code.size() && !entry.is_halt) {
    // Ran off the program's end: the front end (or the wrong path) stops.
    (wrong ? spec_fetch_done_ : frontend_done_) = true;
    return rename_result::accepted_stop;
  }
  if (redirected && !config_.perfect_branch_prediction) {
    // The mispredict flush consumed the rest of the group (the in-order
    // model's "the redirect consumed the slot" rule); fetch_ready_
    // already carries the penalty.
    return rename_result::accepted_stop;
  }
  if (serializing) {
    return rename_result::accepted_stop;
  }
  return rename_result::accepted;
}

// ---------------------------------------------------------------------------
// Speculation: prediction and recovery flush
// ---------------------------------------------------------------------------

void ooo_reference_core::emit_bp_table(std::uint8_t lane,
                                       std::uint32_t value) {
  emit(0, component::bp_table, lane, bp_table_state_[lane], value, cycle_);
  bp_table_state_[lane] = value;
}

void ooo_reference_core::emit_btb_port(std::uint8_t lane,
                                       std::uint32_t value) {
  emit(0, component::btb_port, lane, btb_port_state_[lane], value, cycle_);
  btb_port_state_[lane] = value;
}

std::size_t ooo_reference_core::predict_next(const instruction& ins,
                                             std::size_t index,
                                             bool& taken) {
  const auto pc32 = static_cast<std::uint32_t>(index);
  const auto target = static_cast<std::size_t>(
      static_cast<std::int64_t>(index) + 1 + ins.branch_offset);
  // Direction: unconditional branches are always "taken" to the decoder;
  // conditional ones consult the direction predictor.  For conditional
  // indirect branches the displacement hint is the fall-through index, so
  // static BTFN predicts not-taken — a front end cannot see an indirect
  // target's direction.
  taken = true;
  if (ins.cond != isa::condition::al) {
    const auto dir = predictor_.predict_conditional(
        pc32, ins.op == opcode::bx ? pc32 + 1
                                   : static_cast<std::uint32_t>(target));
    emit_bp_table(0, dir.table_bus);
    taken = dir.taken;
  }
  if (!taken) {
    return index + 1;
  }
  // Target: returns pop the RSB (the wrong path only peeks — it never
  // mutates predictor state), other indirects consult the BTB, direct
  // branches decode their displacement.
  if (ins.op != opcode::bx) {
    return target;
  }
  if (ins.op2.rm == reg::lr) {
    const auto p =
        wrong_path_ ? predictor_.peek_return() : predictor_.pop_return();
    emit_btb_port(1, p.target_bus);
    return p.target;
  }
  const auto p = predictor_.predict_indirect(pc32);
  emit_btb_port(0, p.target_bus);
  return p.has_target ? p.target : index + 1;
}

void ooo_reference_core::predict_branch(const instruction& ins,
                                        std::size_t pc_index, bool exec,
                                        std::size_t actual_next,
                                        std::uint32_t rob_slot,
                                        std::uint32_t seq) {
  const auto pc32 = static_cast<std::uint32_t>(pc_index);
  const bool is_return = ins.op == opcode::bx && ins.op2.rm == reg::lr;
  bool taken = true;
  const std::size_t predicted = predict_next(ins, pc_index, taken);
  if (!taken && is_return && exec) {
    // Direction-mispredicted return: the RSB still balances its bl at
    // resolve (a silent repair pop; no prediction came off it).
    predictor_.pop_return();
  }

  // Learn the resolved outcome (correct-path branches only).
  if (ins.cond != isa::condition::al) {
    emit_bp_table(1, predictor_.update_conditional(pc32, exec));
  }
  if (ins.op == opcode::bl && exec) {
    emit_btb_port(1, predictor_.push_return(pc32 + 1));
  }
  if (ins.op == opcode::bx && !is_return && exec) {
    emit_btb_port(0, predictor_.update_indirect(
                         pc32, static_cast<std::uint32_t>(actual_next)));
  }

  if (predicted == actual_next) {
    return;
  }

  // Mispredict: fetch follows the predicted (wrong) path until the branch
  // resolves resolve_latency cycles from now.  The wrong path executes
  // against a shadow copy of the architectural registers/flags seeded
  // here — wrong-path dataflow is exact (loads read real memory, which
  // already holds every older store) without touching state_.
  ++mispredicts_;
  wrong_path_ = true;
  spec_pc_ = predicted;
  spec_fetch_done_ = predicted >= prog_->code.size();
  spec_branch_slot_ = rob_slot;
  spec_branch_seq_ = seq;
  spec_resolve_at_ =
      cycle_ + static_cast<std::uint64_t>(spec_.resolve_latency);
  ckpt_flags_slot_ = flags_producer_slot_;
  ckpt_flags_seq_ =
      flags_producer_slot_ != no_slot ? rob_[flags_producer_slot_].seq : 0;
  spec_state_ = state_;
}

void ooo_reference_core::resolve_mispredict() {
  // Walk the ROB tail back to (exclusive) the mispredicted branch,
  // youngest first: each step undoes one rename (RAT mapping via the
  // old_preg chain, physical register back to the free list).  Pushing
  // youngest-first restores the free list's exact stack order.
  const auto branch_slot = static_cast<std::size_t>(spec_branch_slot_);
  while (rob_count_ > 0) {
    const std::size_t tail = (rob_head_ + rob_count_ - 1) % rob_.size();
    if (tail == branch_slot) {
      break;
    }
    rob_entry& e = rob_[tail];
    if (e.dest_arch != no_reg) {
      rat_[e.dest_arch] = e.old_preg;
      preg_ready_[e.dest_preg] = 1;
      free_pregs_.push_back(e.dest_preg);
    }
    e = rob_entry{};
    --rob_count_;
  }

  // Purge wrong-path reservation-station and in-flight entries
  // (everything younger than the branch).
  for (rs_entry& rs : rs_) {
    if (rs.busy && rs.seq > spec_branch_seq_) {
      rs.busy = false;
      --rs_used_;
    }
  }
  std::erase_if(exec_, [this](const exec_entry& ex) {
    return ex.seq > spec_branch_seq_;
  });

  // The flag producer reverts to the checkpointed one — unless that
  // entry has retired (possibly letting the slot be reused), which the
  // recorded seq detects; then there is nothing to wait on.
  flags_producer_slot_ = no_slot;
  if (ckpt_flags_slot_ != no_slot) {
    const std::size_t pos =
        (static_cast<std::size_t>(ckpt_flags_slot_) + rob_.size() -
         rob_head_) %
        rob_.size();
    if (pos < rob_count_ && rob_[ckpt_flags_slot_].seq == ckpt_flags_seq_) {
      flags_producer_slot_ = ckpt_flags_slot_;
    }
  }

  // The branch resolves: it may now retire, wrong-path sequence numbers
  // are reused by the correct path (as in the production scheduler,
  // whose age ring needs the in-flight seq window to stay dense), and
  // fetch resumes from the architectural pc, which always held the
  // correct next index.
  rob_[branch_slot].completed = true;
  next_seq_ = spec_branch_seq_ + 1;
  wrong_path_ = false;
  spec_fetch_done_ = false;
  spec_branch_slot_ = no_slot;
}

void ooo_reference_core::rename_stage() {
  if (frontend_done_ || cycle_ < fetch_ready_) {
    return;
  }
  if (!wrong_path_ && state_.pc >= prog_->code.size()) {
    frontend_done_ = true; // fell off the end without a halt
    return;
  }
  int renamed_now = 0;
  while (renamed_now < config_.ooo.rename_width) {
    // The front end cannot tell it mispredicted: fetch continues down the
    // predicted path — possibly in the same rename group as the branch —
    // until the resolve-cycle flush.
    if (wrong_path_ ? spec_fetch_done_ : state_.pc >= prog_->code.size()) {
      break;
    }
    const rename_result r = rename_one(renamed_now);
    if (r == rename_result::stall) {
      break;
    }
    ++renamed_now;
    if (r == rename_result::accepted_stop) {
      break;
    }
  }
  if (renamed_now >= 2) {
    ++multi_rename_cycles_;
  }
}

bool ooo_reference_core::step_cycle() {
  if (state_.halted) {
    return false;
  }
  if (wrong_path_ && cycle_ >= spec_resolve_at_) [[unlikely]] {
    // The branch resolves at the top of the cycle: the flush happens
    // before retirement (the resolved branch may commit this cycle) and
    // before rename (correct-path fetch restarts this cycle).
    resolve_mispredict();
  }
  retire_stage();
  if (state_.halted) {
    ++cycle_;
    return false;
  }
  drain_store_buffer();
  broadcast_stage();
  schedule_stage();
  rename_stage();

  if (frontend_done_ && rob_count_ == 0 && exec_.empty() &&
      store_buffer_.empty()) {
    state_.halted = true;
  }
  ++cycle_;
  return !state_.halted;
}

} // namespace usca::sim
