// The in-order Cortex-A7 model.  Shared control (fetch, issue selection,
// scoreboard) runs once per cycle; every emission point loops the active
// lanes in lane order, so a surviving lane's activity stream does not
// depend on the batch it ran in (ctest -L sim_batch, and the golden pins
// in tests/sim/inorder_activity_golden_test.cpp).  The modelled
// micro-architecture and execution strategy are described in pipeline.h.
#include "sim/batch_pipeline.h"

#include <algorithm>
#include <bit>

#include "sim/alu.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::sim {

namespace {

using isa::instruction;
using isa::opcode;
using isa::reads_flags;
using isa::reg;
using isa::writes_flags;

} // namespace

batch_pipeline::batch_pipeline(program_image image, micro_arch_config config,
                               std::size_t lanes)
    : batch_backend(lanes),
      image_(std::move(image)),
      prog_(&image_.prog()),
      config_(config),
      memory_(lanes_),
      dcache_(lanes_, mem::cache(config.dcache)),
      icache_(config.icache) {
  for (mem::memory& m : memory_) {
    m.load(prog_->data_base, prog_->data);
  }
  derive_pairability();
}

void batch_pipeline::derive_pairability() {
  const std::vector<instruction>& code = prog_->code;
  pairable_next_.resize(code.size());
  for (std::size_t i = 0; i < code.size(); ++i) {
    pairable_next_[i] =
        i + 1 < code.size() &&
        statically_pairable(config_, code[i], code[i + 1]);
  }
}

void batch_pipeline::rebind(program_image image) {
  image_ = std::move(image);
  prog_ = &image_.prog();
  derive_pairability();
  reset();
}

void batch_pipeline::reset() {
  for (std::size_t l = 0; l < lanes_; ++l) {
    memory_[l].reset();
    memory_[l].load(prog_->data_base, prog_->data);
    dcache_[l].reset();
    state_[l] = cpu_state{};
    activity_[l].clear();
  }
  icache_.reset();
  std::fill_n(rf_port_state_.begin(), 3 * lanes_, 0U);
  std::fill_n(is_ex_bus_state_.begin(), 3 * lanes_, 0U);
  std::fill_n(alu_latch_state_.begin(), 4 * lanes_, 0U);
  std::fill_n(ex_wb_latch_state_.begin(), 2 * lanes_, 0U);
  std::fill_n(wb_bus_state_.begin(), 2 * lanes_, 0U);
  std::fill_n(mdr_state_.begin(), lanes_, 0U);
  std::fill_n(align_buffer_state_.begin(), lanes_, 0U);
  pc_ = 0;
  halted_ = false;
  reg_ready_.fill(0);
  flags_ready_ = 0;
  lsu_free_ = 0;
  mul_free_ = 0;
  fetch_ready_ = 0;
  cycle_ = 0;
  issued_ = 0;
  dual_pairs_ = 0;
  active_lane_cycles_ = 0;
  rf_ports_used_this_cycle_ = 0;
  record_activity_ = record_default_;
  marks_.clear();
  active_mask_ = mask_for_limit();
  diverged_mask_ = 0;
}

void batch_pipeline::warm_caches() {
  icache_.warm(prog_->code_base, prog_->code.size() * 4 + 4);
  if (!prog_->data.empty()) {
    for (mem::cache& d : dcache_) {
      d.warm(prog_->data_base, prog_->data.size());
    }
  }
}

void batch_pipeline::run(std::uint64_t max_cycles) {
  sync_in();
  const std::uint64_t start_cycle = cycle_;
  lanes_ == 1 ? step_until<true>(cycle_ + max_cycles)
              : step_until<false>(cycle_ + max_cycles);
  sync_out();
  // Counted per surviving lane: a batch adds what its lanes' per-trace
  // runs would (ejected lanes count on their per-trace rerun).
  static const telem::counter cycles{"sim.inorder.cycles", "cycles", "sim"};
  cycles.add((cycle_ - start_cycle) *
             static_cast<std::uint64_t>(std::popcount(active_mask_)));
}

bool batch_pipeline::step_cycle() {
  sync_in();
  const bool running = lanes_ == 1 ? step<true>() : step<false>();
  sync_out();
  return running;
}

// ---------------------------------------------------------------------------
// Event plumbing
// ---------------------------------------------------------------------------

template <bool one_lane>
void batch_pipeline::drive_rf_port(const lane_array<one_lane>& values) {
  const int port = rf_ports_used_this_cycle_++;
  if (port >= 3) {
    return; // defensive: pairing rules keep this within 3 ports
  }
  const std::size_t base = static_cast<std::size_t>(port) * width<one_lane>();
  const auto port_lane = static_cast<std::uint8_t>(port);
  for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit(l, component::rf_read_port, port_lane, rf_port_state_[base + l],
         values[l], cycle_);
    rf_port_state_[base + l] = values[l];
  }
}

template <bool one_lane>
void batch_pipeline::drive_is_ex_bus(
    std::uint8_t bus, const lane_array<one_lane>& values) {
  // Operands flop into the EX stage one cycle after the RF read.
  const std::size_t base = static_cast<std::size_t>(bus) * width<one_lane>();
  for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit(l, component::is_ex_bus, bus, is_ex_bus_state_[base + l],
         values[l], cycle_ + 1);
    is_ex_bus_state_[base + l] = values[l];
  }
}

template <bool one_lane>
void batch_pipeline::drive_is_ex_bus_uniform(std::uint8_t bus,
                                             std::uint32_t value) {
  const std::size_t base = static_cast<std::size_t>(bus) * width<one_lane>();
  for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit(l, component::is_ex_bus, bus, is_ex_bus_state_[base + l],
         value, cycle_ + 1);
    is_ex_bus_state_[base + l] = value;
  }
}

template <bool one_lane>
void batch_pipeline::write_back(int slot, const lane_array<one_lane>& values,
                                std::uint64_t at_cycle) {
  const auto bus = static_cast<std::uint8_t>(slot);
  const std::size_t base = static_cast<std::size_t>(slot) * width<one_lane>();
  for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit(l, component::wb_bus, bus, wb_bus_state_[base + l], values[l],
         at_cycle);
    wb_bus_state_[base + l] = values[l];
    emit(l, component::ex_wb_latch, bus, ex_wb_latch_state_[base + l],
         values[l], at_cycle);
    ex_wb_latch_state_[base + l] = values[l];
  }
}

template <bool one_lane>
void batch_pipeline::retire_write(reg r, const lane_array<one_lane>& values,
                                  std::uint64_t ready_at) noexcept {
  for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    state_[l].set_reg(r, values[l]);
  }
  reg_ready_[isa::index_of(r)] = ready_at;
}

// ---------------------------------------------------------------------------
// Issue legality (shared control)
// ---------------------------------------------------------------------------

bool batch_pipeline::operands_ready(std::size_t index) const noexcept {
  const instruction_static& st = image_.statics(index);
  std::uint32_t sources = st.src_mask;
  while (sources != 0) {
    const unsigned r = static_cast<unsigned>(std::countr_zero(sources));
    if (reg_ready_[r] > cycle_) {
      return false;
    }
    sources &= sources - 1;
  }
  if (st.reads_flags && flags_ready_ > cycle_) {
    return false;
  }
  return true;
}

bool batch_pipeline::unit_available(std::size_t index) const noexcept {
  const instruction_static& st = image_.statics(index);
  if (st.is_memory && lsu_free_ > cycle_) {
    return false;
  }
  if (st.uses_multiplier && mul_free_ > cycle_) {
    return false;
  }
  return true;
}

bool statically_pairable(const micro_arch_config& config,
                         const instruction& older,
                         const instruction& younger) noexcept {
  if (config.issue_width < 2) {
    return false;
  }
  if (isa::is_nop(older) || isa::is_nop(younger)) {
    if (!config.nop_dual_issues) {
      return false;
    }
  }
  const isa::issue_class older_cls = isa::classify(older);
  const isa::issue_class younger_cls = isa::classify(younger);
  if (older_cls == isa::issue_class::other ||
      younger_cls == isa::issue_class::other) {
    return false;
  }

  if (config.policy == issue_policy::table) {
    const std::size_t row = pair_class_index(older_cls);
    const std::size_t col = pair_class_index(younger_cls);
    if (row >= num_pair_classes || col >= num_pair_classes) {
      if (!config.nop_dual_issues) {
        return false;
      }
    } else if (!config.pair_table[row][col]) {
      return false;
    }
  } else {
    // Structural-only policy: an idealized issue stage limited solely by
    // physical resources.
    if (isa::is_memory(older) && isa::is_memory(younger)) {
      return false; // single LSU pipe
    }
    if (isa::needs_alu0(older) && isa::needs_alu0(younger) &&
        config.alu0_has_shifter) {
      return false; // one shifter/multiplier
    }
    if (isa::is_branch(older) && isa::is_branch(younger)) {
      return false; // one branch unit
    }
  }

  // Structural limits that hold under every policy.
  if (isa::read_ports_needed(older) + isa::read_ports_needed(younger) >
      config.rf_read_ports) {
    return false;
  }
  if (isa::write_ports_needed(older) + isa::write_ports_needed(younger) >
      config.rf_write_ports) {
    return false;
  }

  // Inter-instruction dependencies.
  const isa::reg_list older_dests = isa::destination_registers(older);
  for (const reg r : isa::source_registers(younger)) {
    if (older_dests.contains(r)) {
      return false; // RAW
    }
  }
  for (const reg r : isa::destination_registers(younger)) {
    if (older_dests.contains(r)) {
      return false; // WAW
    }
  }
  if (writes_flags(older) && (reads_flags(younger) || writes_flags(younger))) {
    return false;
  }
  return true;
}

template <bool one_lane>
bool batch_pipeline::agreed_exec(const instruction& ins) noexcept {
  if (ins.cond == isa::condition::al) {
    return true;
  }
  lane_array<one_lane, std::uint8_t> outcome;
  for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    outcome[l] = isa::condition_passes(ins.cond, state_[l].f) ? 1 : 0;
  }
  return agreed<one_lane>(outcome) != 0;
}

// ---------------------------------------------------------------------------
// Issue + execute
// ---------------------------------------------------------------------------

template <bool one_lane>
batch_pipeline::issue_outcome batch_pipeline::issue(const instruction& ins,
                                                    int slot) {
  using values = lane_array<one_lane>;
  const std::size_t lanes = width<one_lane>();
  issue_outcome outcome;
  outcome.issued = true;
  ++issued_;

  std::size_t next_pc = pc_ + 1;

  // Simulator pseudo-ops: transparent to the leakage model; control never
  // consults the condition here.
  if (ins.op == opcode::mark) {
    marks_.push_back(mark_stamp{ins.imm16, cycle_, dual_pairs_});
    if (has_cutoff_mark_ && ins.imm16 == cutoff_mark_) {
      // Safe cut: every event of a window ending at this mark's cycle was
      // emitted by an instruction issued strictly before it (marks
      // serialize, and emission cycles never precede issue cycles), so it
      // is already recorded.
      record_activity_ = false;
    }
    outcome.serialize = true;
    pc_ = next_pc;
    return outcome;
  }
  if (ins.op == opcode::halt) {
    halted_ = true;
    outcome.serialize = true;
    return outcome;
  }

  // The canonical nop: condition-never, zero-valued operands.  It does not
  // execute, but it *does* traverse the issue stage, where (on the modelled
  // core) it asserts zeroes on the operand buses and later resets the
  // write-back buses — the paper's "semantically neutral, not security
  // neutral" behaviour.
  if (isa::is_nop(ins)) {
    if (config_.nop_drives_zero_operands) {
      drive_is_ex_bus_uniform<one_lane>(0, 0);
      drive_is_ex_bus_uniform<one_lane>(1, 0);
    }
    if (config_.nop_zeroes_wb_bus) {
      const std::uint64_t wb_at = cycle_ + 3;
      for (std::uint8_t bus = 0; bus < 2; ++bus) {
        const std::size_t base = static_cast<std::size_t>(bus) * lanes;
        for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(m));
          emit(l, component::wb_bus, bus, wb_bus_state_[base + l], 0,
               wb_at);
          wb_bus_state_[base + l] = 0;
        }
      }
    }
    if (!config_.alu_latch_holds_on_idle) {
      for (std::uint8_t latch = 0; latch < 4; ++latch) {
        const std::size_t base = static_cast<std::size_t>(latch) * lanes;
        for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(m));
          emit(l, component::alu_in_latch, latch,
               alu_latch_state_[base + l], 0, cycle_ + 1);
          alu_latch_state_[base + l] = 0;
        }
      }
    }
    pc_ = next_pc;
    return outcome;
  }

  // Condition handling: branches, memory ops and multiplies consult the
  // outcome as SHARED control (redirects, D-cache/LSU/multiplier
  // occupancy, multi-cycle scoreboard writes), so it is a divergence
  // checkpoint for them — agreed_exec below.  Plain DP ops are predicated
  // per lane instead (see the data-processing section).

  // --- branches ---------------------------------------------------------
  if (isa::is_branch(ins)) {
    const bool exec = agreed_exec<one_lane>(ins);
    if (ins.op == opcode::bx) {
      values target;
      read_reg<one_lane>(ins.op2.rm, target);
      drive_rf_port<one_lane>(target);
      if (exec) {
        // Second checkpoint: the indirect target IS the control stream.
        const auto index =
            prog_->index_of_address(agreed<one_lane>(target));
        if (!index) {
          halted_ = true; // return past the outermost frame
          outcome.serialize = true;
          return outcome;
        }
        next_pc = *index;
      }
    } else if (exec) {
      const auto target = static_cast<std::size_t>(
          static_cast<std::int64_t>(pc_) + 1 + ins.branch_offset);
      if (ins.op == opcode::bl) {
        values link;
        link.fill(prog_->address_of(pc_ + 1));
        retire_write<one_lane>(reg::lr, link, cycle_ + 1);
      }
      next_pc = target;
    }
    if (next_pc != pc_ + 1) {
      outcome.redirect = true;
      if (!config_.perfect_branch_prediction) {
        fetch_ready_ =
            cycle_ + 1 +
            static_cast<std::uint64_t>(config_.branch_mispredict_penalty);
      }
    }
    pc_ = next_pc;
    if (pc_ >= prog_->code.size()) {
      halted_ = true;
    }
    return outcome;
  }

  // --- memory -------------------------------------------------------------
  if (isa::is_memory(ins)) {
    const bool exec = agreed_exec<one_lane>(ins);
    values base_v;
    read_reg<one_lane>(ins.mem.base, base_v);
    drive_rf_port<one_lane>(base_v);
    values address;
    if (ins.mem.reg_offset) {
      values offset_reg;
      read_reg<one_lane>(ins.mem.offset_reg, offset_reg);
      drive_rf_port<one_lane>(offset_reg);
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        const std::uint32_t offset = offset_reg[l] << ins.mem.offset_shift;
        address[l] = ins.mem.subtract ? base_v[l] - offset
                                      : base_v[l] + offset;
      }
    } else {
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        address[l] = ins.mem.subtract ? base_v[l] - ins.mem.offset_imm
                                      : base_v[l] + ins.mem.offset_imm;
      }
    }

    if (!exec) {
      pc_ = next_pc;
      return outcome;
    }

    // Third checkpoint: each lane probes its own D-cache at its own
    // address; the penalty — a shared scoreboard input — must agree.
    lane_array<one_lane, int> pen;
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      pen[l] = dcache_[l].access(address[l]);
    }
    const int penalty = agreed<one_lane>(pen);
    const std::uint64_t mem_cycle = cycle_ + 2;
    const std::uint64_t result_ready =
        cycle_ + static_cast<std::uint64_t>(config_.lsu_latency + penalty);
    if (!config_.lsu_pipelined) {
      lsu_free_ = result_ready;
    } else if (penalty > 0) {
      lsu_free_ = cycle_ + static_cast<std::uint64_t>(penalty);
    }

    if (isa::is_load(ins)) {
      values word;
      values value;
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        word[l] = memory_[l].containing_word(address[l]);
        switch (ins.op) {
        case opcode::ldr:
          value[l] = memory_[l].read32(address[l]);
          break;
        case opcode::ldrb:
          value[l] = memory_[l].read8(address[l]);
          break;
        case opcode::ldrh:
          value[l] = memory_[l].read16(address[l]);
          break;
        default:
          value[l] = 0;
          break;
        }
      }
      retire_write<one_lane>(ins.rd, value, result_ready);
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit(l, component::mdr, 0, mdr_state_[l], word[l], mem_cycle);
        mdr_state_[l] = word[l];
      }
      if (isa::is_subword(ins) && config_.has_align_buffer) {
        for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(m));
          emit(l, component::align_buffer, 0, align_buffer_state_[l],
               value[l], mem_cycle + 1);
          align_buffer_state_[l] = value[l];
        }
      }
      write_back<one_lane>(slot, value, result_ready);
    } else {
      values data;
      read_reg<one_lane>(ins.rd, data);
      drive_rf_port<one_lane>(data);
      drive_is_ex_bus<one_lane>(slot == 0 ? std::uint8_t{1} : std::uint8_t{2},
                                data);
      values word;
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        switch (ins.op) {
        case opcode::str:
          memory_[l].write32(address[l], data[l]);
          break;
        case opcode::strb:
          memory_[l].write8(address[l], static_cast<std::uint8_t>(data[l]));
          break;
        case opcode::strh:
          memory_[l].write16(address[l],
                             static_cast<std::uint16_t>(data[l]));
          break;
        default:
          break;
        }
        word[l] = memory_[l].containing_word(address[l]);
        emit(l, component::mdr, 0, mdr_state_[l], word[l], mem_cycle);
        mdr_state_[l] = word[l];
      }
      if (isa::is_subword(ins) && config_.has_align_buffer) {
        for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(m));
          const std::uint32_t sub = ins.op == opcode::strb
                                        ? (data[l] & 0xffU)
                                        : (data[l] & 0xffffU);
          emit(l, component::align_buffer, 0, align_buffer_state_[l],
               sub, mem_cycle + 1);
          align_buffer_state_[l] = sub;
        }
      }
      // Store data traverses the EX->WB path on its way to the store
      // buffer even though no register is written.
      write_back<one_lane>(slot, data, cycle_ + 3);
    }
    pc_ = next_pc;
    return outcome;
  }

  // --- multiply -------------------------------------------------------
  if (ins.op == opcode::mul || ins.op == opcode::mla) {
    const bool exec = agreed_exec<one_lane>(ins);
    values a;
    values b;
    read_reg<one_lane>(ins.rn, a);
    read_reg<one_lane>(ins.op2.rm, b);
    drive_rf_port<one_lane>(a);
    drive_rf_port<one_lane>(b);
    values acc{};
    if (ins.op == opcode::mla) {
      read_reg<one_lane>(ins.ra, acc);
      drive_rf_port<one_lane>(acc);
    }
    drive_is_ex_bus<one_lane>(0, a);
    drive_is_ex_bus<one_lane>(1, b);
    if (exec) {
      values result;
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        result[l] = a[l] * b[l] + (ins.op == opcode::mla ? acc[l] : 0);
      }
      const std::uint64_t ready =
          cycle_ + static_cast<std::uint64_t>(config_.mul_latency);
      if (!config_.mul_pipelined) {
        mul_free_ = ready;
      }
      // The multiplier lives on ALU0.
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit(l, component::alu_in_latch, 0, alu_latch_state_[l], a[l],
             cycle_ + 1);
        alu_latch_state_[l] = a[l];
      }
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit(l, component::alu_in_latch, 1, alu_latch_state_[lanes + l],
             b[l], cycle_ + 1);
        alu_latch_state_[lanes + l] = b[l];
      }
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit_weight(l, component::alu_out, 0, result[l], ready - 1);
      }
      retire_write<one_lane>(ins.rd, result, ready);
      write_back<one_lane>(slot, result, ready);
      if (ins.set_flags) {
        for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(m));
          state_[l].f.n = (result[l] >> 31) != 0;
          state_[l].f.z = result[l] == 0;
        }
        flags_ready_ = ready;
      }
    }
    pc_ = next_pc;
    return outcome;
  }

  // --- data processing --------------------------------------------------
  const bool has_rn = !(ins.op == opcode::mov || ins.op == opcode::mvn ||
                        ins.op == opcode::movw || ins.op == opcode::movt);
  values rn_value{};
  // Bus lane allocation: slot 0 uses buses 0/1 for its first/second
  // operand; slot 1 uses bus 2 for its first register operand and falls
  // back to bus 1 for a second one (the port budget guarantees bus 1 is
  // then unused by slot 0).
  const std::uint8_t first_lane = slot == 0 ? std::uint8_t{0} : std::uint8_t{2};
  const std::uint8_t second_lane =
      slot == 0 ? std::uint8_t{1} : std::uint8_t{2};
  int reg_operands = 0;

  if (has_rn && !(ins.op == opcode::movw || ins.op == opcode::movt)) {
    read_reg<one_lane>(ins.rn, rn_value);
    drive_rf_port<one_lane>(rn_value);
    drive_is_ex_bus<one_lane>(first_lane, rn_value);
    ++reg_operands;
  }

  // Per-lane operand-2 evaluation; the *structure* (used_shifter and the
  // port/bus traffic it implies) is static per instruction, only the
  // values differ per lane.
  values op2_value{};
  values op2_pre{};
  lane_array<one_lane, std::uint8_t> op2_carry{};
  bool used_shifter = false;
  if (ins.op == opcode::movw) {
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      op2_value[l] = ins.imm16;
    }
  } else if (ins.op == opcode::movt) {
    values old;
    read_reg<one_lane>(ins.rd, old);
    drive_rf_port<one_lane>(old);
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      op2_value[l] = (old[l] & 0xffffU) |
                     (static_cast<std::uint32_t>(ins.imm16) << 16);
    }
  } else {
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      const operand2_value op2 = eval_operand2(
          ins, [this, l](reg r) { return state_[l].reg(r); },
          state_[l].f.c);
      op2_value[l] = op2.value;
      op2_pre[l] = op2.pre_shift;
      op2_carry[l] = op2.carry ? 1 : 0;
      used_shifter = op2.used_shifter; // static: ins.op2.shift.active()
    }
    if (ins.op2.k == isa::operand2::kind::reg_shifted) {
      drive_rf_port<one_lane>(op2_pre);
      const std::uint8_t bus = (reg_operands == 0) ? first_lane : second_lane;
      drive_is_ex_bus<one_lane>(bus, op2_pre);
      ++reg_operands;
      if (ins.op2.shift.by_register) {
        values amount;
        read_reg<one_lane>(ins.op2.shift.amount_reg, amount);
        drive_rf_port<one_lane>(amount);
      }
    }
  }

  // Per-lane predication for plain DP ops, agreement for the rest.  A
  // latency-1 DP op that writes a register and no flags has exactly one
  // schedule effect on a single trace: reg_ready_[rd] = cycle_+1,
  // observable only by a same-cycle dual-issue partner reading or writing
  // rd — which statically_pairable forbids (RAW/WAW).  Its condition
  // outcome is therefore lane-local data (the AES xtime `eorne`!), not
  // control: the batch gates the lane's emissions and register write and
  // never ejects.  Shifted ops (latency > 1: the scoreboard write IS
  // observable next cycle), flag writers (flags_ready_), and conditional
  // movw/movt stay on the agreement path.
  std::uint64_t exec_mask = active<one_lane>();
  if (ins.cond != isa::condition::al) {
    const bool relaxed = !used_shifter && !writes_flags(ins) &&
                         ins.op != opcode::movw && ins.op != opcode::movt;
    if (relaxed) {
      exec_mask = 0;
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        if (isa::condition_passes(ins.cond, state_[l].f)) {
          exec_mask |= std::uint64_t{1} << l;
        }
      }
    } else if (!agreed_exec<one_lane>(ins)) {
      pc_ = next_pc;
      return outcome;
    } else {
      exec_mask = active<one_lane>(); // agreement may have shrunk the batch
    }
  }
  if (exec_mask == 0) {
    // No lane executes: a 1-lane run of any of them returns here too.
    pc_ = next_pc;
    return outcome;
  }

  // Unit binding: instructions that need the shifter or multiplier run on
  // ALU0; otherwise slot 0 runs on ALU0 and slot 1 on ALU1.  When the
  // younger of a dual-issued pair needs ALU0, the pairing rules guarantee
  // the older does not.
  int alu_index;
  if (isa::needs_alu0(ins)) {
    alu_index = 0;
  } else {
    alu_index = slot == 0 ? 0 : 1;
  }
  std::uint64_t result_latency = 1;
  if (used_shifter) {
    result_latency += static_cast<std::uint64_t>(config_.shift_extra_latency);
    // The shifter computes in EX1; its output buffer drives the ALU input
    // during EX2 — the cycle at which the paper observes the (small)
    // Hamming-weight leakage of the shifted value.
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit_weight(l, component::shift_buffer, 0, op2_value[l],
                  cycle_ + 2);
    }
  }

  if (ins.op == opcode::movw || ins.op == opcode::movt) {
    const std::size_t latch1 =
        static_cast<std::size_t>(alu_index * 2 + 1) * lanes;
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit(l, component::alu_in_latch,
           static_cast<std::uint8_t>(alu_index * 2 + 1),
           alu_latch_state_[latch1 + l], op2_value[l], cycle_ + 1);
      alu_latch_state_[latch1 + l] = op2_value[l];
    }
    retire_write<one_lane>(ins.rd, op2_value, cycle_ + result_latency);
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit_weight(l, component::alu_out,
                  static_cast<std::uint8_t>(alu_index), op2_value[l],
                  cycle_ + 2);
    }
    write_back<one_lane>(slot, op2_value, cycle_ + 3);
    pc_ = next_pc;
    return outcome;
  }

  values result;
  lane_array<one_lane, isa::flags> result_flags;
  bool writes_result = true; // static per opcode: take any active lane's
  for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    const alu_result r = execute_dp(ins.op, rn_value[l], op2_value[l],
                                    op2_carry[l] != 0, state_[l].f);
    result[l] = r.value;
    result_flags[l] = r.f;
    writes_result = r.writes_result;
  }

  // ALU input latches: operand position 0 = rn, position 1 = (shifted) op2.
  // Every datapath effect below is gated per lane by exec_mask — a
  // predicated-false lane's 1-lane run returned before this point.
  const std::uint64_t emit_mask = active<one_lane>() & exec_mask;
  const std::size_t latch_base =
      static_cast<std::size_t>(alu_index * 2) * lanes;
  if (has_rn) {
    for (std::uint64_t m = emit_mask; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit(l, component::alu_in_latch,
           static_cast<std::uint8_t>(alu_index * 2),
           alu_latch_state_[latch_base + l], rn_value[l], cycle_ + 1);
      alu_latch_state_[latch_base + l] = rn_value[l];
    }
  }
  for (std::uint64_t m = emit_mask; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit(l, component::alu_in_latch,
         static_cast<std::uint8_t>(alu_index * 2 + 1),
         alu_latch_state_[latch_base + lanes + l], op2_value[l],
         cycle_ + 1);
    alu_latch_state_[latch_base + lanes + l] = op2_value[l];
  }

  for (std::uint64_t m = emit_mask; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit_weight(l, component::alu_out,
                static_cast<std::uint8_t>(alu_index), result[l],
                cycle_ + 2);
  }

  if (writes_result) {
    // The scoreboard write is shared (unobservable when lanes disagree —
    // see above); the register value and WB-path events are per lane.
    reg_ready_[isa::index_of(ins.rd)] = cycle_ + result_latency;
    const auto wb_bus = static_cast<std::uint8_t>(slot);
    const std::size_t wb_base = static_cast<std::size_t>(slot) * lanes;
    for (std::uint64_t m = emit_mask; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      state_[l].set_reg(ins.rd, result[l]);
      emit(l, component::wb_bus, wb_bus, wb_bus_state_[wb_base + l],
           result[l], cycle_ + 3);
      wb_bus_state_[wb_base + l] = result[l];
      emit(l, component::ex_wb_latch, wb_bus,
           ex_wb_latch_state_[wb_base + l], result[l], cycle_ + 3);
      ex_wb_latch_state_[wb_base + l] = result[l];
    }
  }
  if (writes_flags(ins)) {
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      state_[l].f = result_flags[l];
    }
    flags_ready_ = cycle_ + result_latency;
  }
  pc_ = next_pc;
  return outcome;
}

// ---------------------------------------------------------------------------
// Cycle loop (shared control)
// ---------------------------------------------------------------------------

template <bool one_lane>
void batch_pipeline::step_until(std::uint64_t limit) {
  while (!halted_) {
    if (cycle_ >= limit) {
      throw util::simulation_error("pipeline exceeded the cycle budget");
    }
    step<one_lane>();
  }
}

template <bool one_lane>
bool batch_pipeline::step() {
  if (halted_) {
    return false;
  }
  active_lane_cycles_ +=
      static_cast<std::uint64_t>(std::popcount(active<one_lane>()));
  rf_ports_used_this_cycle_ = 0;

  const auto try_select = [&](std::size_t index) -> const instruction* {
    if (index >= prog_->code.size()) {
      return nullptr;
    }
    if (cycle_ < fetch_ready_) {
      return nullptr;
    }
    if (!operands_ready(index) || !unit_available(index)) {
      return nullptr;
    }
    const int penalty = icache_.access(prog_->address_of(index));
    if (penalty > 0) {
      fetch_ready_ = cycle_ + static_cast<std::uint64_t>(penalty);
      return nullptr;
    }
    return &prog_->code[index];
  };

  if (pc_ >= prog_->code.size()) {
    halted_ = true;
    return false;
  }

  const instruction* first = try_select(pc_);
  if (first == nullptr) {
    ++cycle_;
    return !halted_;
  }

  // issue() advances pc_, but the code vector is immutable, so the
  // reference stays valid across the call.
  const instruction& older = *first;
  const std::size_t older_index = pc_;
  const issue_outcome first_outcome = issue<one_lane>(older, 0);

  if (first_outcome.issued && !first_outcome.serialize && !halted_ &&
      config_.issue_width >= 2) {
    // With perfect prediction a taken branch presents its *target* as the
    // dual-issue partner; otherwise the redirect consumed the slot.
    bool partner_visible =
        !first_outcome.redirect || config_.perfect_branch_prediction;
    if (config_.pair_aligned_fetch_only &&
        (older_index % 2 != 0 || first_outcome.redirect)) {
      // The fetch unit delivers aligned pairs; an odd-addressed older
      // instruction (or a redirected stream) has no same-group partner.
      partner_visible = false;
    }
    const std::size_t younger_index = pc_;
    if (partner_visible && younger_index < prog_->code.size()) {
      // The fall-through partner's pairability is precomputed; only a
      // perfectly predicted taken branch presents a non-adjacent partner.
      const bool pairable =
          younger_index == older_index + 1
              ? pairable_next_[older_index] != 0
              : statically_pairable(config_, older,
                                    prog_->code[younger_index]);
      if (pairable) {
        const instruction* second = try_select(younger_index);
        if (second != nullptr) {
          issue<one_lane>(*second, 1);
          ++dual_pairs_;
        }
      }
    }
  }
  ++cycle_;
  return !halted_;
}

} // namespace usca::sim
