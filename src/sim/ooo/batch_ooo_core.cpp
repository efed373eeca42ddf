// The production OoO engine.  Every emission point corresponds 1:1 to a
// statement in the oracle, ooo_reference_core.cpp — same order, same
// cycle stamps — with scalar values replaced by lane-major rows.  Keep the
// two files side by side when editing: a surviving lane's activity stream
// must stay bit-identical to the oracle's run of the same trace
// (ctest -L "ooo_equiv|spec|sim_batch").
#include "sim/ooo/batch_ooo_core.h"

#include <algorithm>
#include <bit>

#include "sim/alu.h"
#include "sim/ooo/ooo_core.h"
#include "util/bitops.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::sim {

namespace {

using isa::instruction;
using isa::opcode;
using isa::reg;

} // namespace

batch_ooo_core::batch_ooo_core(program_image image, micro_arch_config config,
                               std::size_t lanes)
    : batch_backend(lanes),
      image_(std::move(image)),
      prog_(&image_.prog()),
      config_(config),
      memory_(lanes_),
      dcache_(lanes_, mem::cache(config.dcache)),
      state_(lanes_),
      icache_(config.icache) {
  validate_ooo_config(config_);
  // The oracle's whole point is being an independent implementation, so
  // it has no batched twin.
  if (ooo_reference_selected(config_)) {
    throw util::simulation_error(
        "the production ooo engine (batch_ooo_core / ooo_core) runs only "
        "the fast scheduler; make_backend builds sim::ooo_reference_core "
        "for ooo.scheduler == reference or USCA_OOO_REFERENCE=1");
  }
  static const telem::gauge reference_mode{"sim.ooo.reference_mode", "flag",
                                           "sim"};
  reference_mode.set(0);
  spec_ = effective_speculation(config_);
  spec_enabled_ = spec_.predictor != predictor_kind::perfect;
  if (spec_enabled_) {
    predictor_.configure(spec_);
  }
  spec_state_.resize(lanes_);
  for (mem::memory& m : memory_) {
    m.load(prog_->data_base, prog_->data);
  }

  const ooo_config& ooo = config_.ooo;
  rob_.resize(static_cast<std::size_t>(ooo.rob_entries));
  rob_value_.resize(rob_.size() * lanes_);
  rob_store_addr_.resize(rob_.size() * lanes_);
  rs_.resize(static_cast<std::size_t>(ooo.rs_entries));
  rs_src_value_.resize(rs_.size() * max_sources * lanes_);
  rs_address_.resize(rs_.size() * lanes_);
  rs_mem_word_.resize(rs_.size() * lanes_);
  rs_sub_value_.resize(rs_.size() * lanes_);
  rs_shift_value_.resize(rs_.size() * lanes_);
  rs_squash_.resize(rs_.size());
  free_pregs_.reserve(static_cast<std::size_t>(ooo.prf_size));
  preg_ready_.resize(static_cast<std::size_t>(ooo.prf_size));
  sb_addr_.resize(static_cast<std::size_t>(ooo.store_buffer_entries) *
                  lanes_);
  preg_waiters_.resize(static_cast<std::size_t>(ooo.prf_size));
  for (auto& waiters : preg_waiters_) {
    waiters.reserve(max_sources);
  }
  rob_flag_waiters_.resize(rob_.size());
  for (auto& waiters : rob_flag_waiters_) {
    waiters.reserve(4);
  }
  for (auto& bucket : exec_wheel_) {
    bucket.reserve(4);
  }
  pending_bcast_.reserve(rob_.size());

  prf_port_state_.resize(8 * lanes_);
  alu_latch_state_.resize(4 * lanes_);
  cdb_state_.resize(4 * lanes_);
  retire_port_state_.resize(4 * lanes_);
  mdr_state_.resize(lanes_);
  align_buffer_state_.resize(lanes_);
  reset_structures();
}

void batch_ooo_core::reset_structures() {
  for (std::size_t r = 0; r < isa::num_registers; ++r) {
    rat_[r] = static_cast<std::uint8_t>(r);
  }
  free_pregs_.clear();
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
  std::fill(rs_squash_.begin(), rs_squash_.end(), 0U);
  sb_head_ = 0;
  sb_count_ = 0;

  rs_busy_mask_ = 0;
  ready_mask_ = 0;
  age_to_slot_.fill(0);
  for (auto& waiters : preg_waiters_) {
    waiters.clear();
  }
  for (auto& waiters : rob_flag_waiters_) {
    waiters.clear();
  }
  for (auto& bucket : exec_wheel_) {
    bucket.clear();
  }
  exec_far_.clear();
  exec_in_flight_ = 0;
  pending_bcast_.clear();
  cycle_dirty_ = false;

  lsu_busy_until_ = 0;
  mul_busy_until_ = 0;
  prf_ports_used_this_cycle_ = 0;

  std::fill(prf_port_state_.begin(), prf_port_state_.end(), 0U);
  std::fill(alu_latch_state_.begin(), alu_latch_state_.end(), 0U);
  std::fill(cdb_state_.begin(), cdb_state_.end(), 0U);
  std::fill(retire_port_state_.begin(), retire_port_state_.end(), 0U);
  std::fill(mdr_state_.begin(), mdr_state_.end(), 0U);
  std::fill(align_buffer_state_.begin(), align_buffer_state_.end(), 0U);
  rat_port_state_.fill(0);
  tag_bus_state_.fill(0);

  pc_ = 0;
  halted_ = false;

  wrong_path_ = false;
  spec_fetch_done_ = false;
  spec_pc_ = 0;
  spec_branch_slot_ = no_slot;
  spec_branch_seq_ = 0;
  spec_resolve_at_ = 0;
  ckpt_flags_slot_ = no_slot;
  ckpt_flags_seq_ = 0;
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
  active_lane_cycles_ = 0;
  record_activity_ = record_default_;
  marks_.clear();
  for (activity_trace& t : activity_) {
    t.clear();
  }
  active_mask_ = mask_for_limit();
  diverged_mask_ = 0;
}

void batch_ooo_core::reset() {
  for (std::size_t l = 0; l < lanes_; ++l) {
    memory_[l].reset();
    memory_[l].load(prog_->data_base, prog_->data);
    dcache_[l].reset();
    state_[l] = cpu_state{};
  }
  icache_.reset();
  reset_structures();
}

void batch_ooo_core::rebind(program_image image) {
  image_ = std::move(image);
  prog_ = &image_.prog();
  reset();
}

void batch_ooo_core::warm_caches() {
  icache_.warm(prog_->code_base, prog_->code.size() * 4 + 4);
  if (!prog_->data.empty()) {
    for (mem::cache& d : dcache_) {
      d.warm(prog_->data_base, prog_->data.size());
    }
  }
}

void batch_ooo_core::run(std::uint64_t max_cycles) {
  sync_in();
  const std::uint64_t start_cycle = cycle_;
  const std::uint64_t start_skipped = idle_skipped_;
  const std::uint64_t start_mispredicts = mispredicts_;
  const std::uint64_t start_wrong_path = wrong_path_renamed_;
  const std::uint64_t limit = cycle_ + max_cycles;
  while (!halted_) {
    if (cycle_ >= limit) {
      throw util::simulation_error("ooo core exceeded the cycle budget");
    }
    lanes_ == 1 ? step<true>() : step<false>();
  }
  sync_out();
  // Per-cycle quantities are accumulated in plain members and flushed to
  // telemetry once per run, never from the cycle loop.  They are counted
  // per surviving lane: a batch adds what its lanes' per-trace runs would
  // (ejected lanes count on their per-trace rerun).
  const auto survivors =
      static_cast<std::uint64_t>(std::popcount(active_mask_));
  static const telem::counter cycles{"sim.ooo.cycles", "cycles", "sim"};
  static const telem::counter skipped{"sim.ooo.idle_skipped", "cycles",
                                      "sim"};
  cycles.add((cycle_ - start_cycle) * survivors);
  skipped.add((idle_skipped_ - start_skipped) * survivors);
  if (spec_enabled_) {
    static const telem::counter mispredicted{"sim.ooo.mispredicts",
                                             "branches", "sim"};
    static const telem::counter wrong_uops{"sim.ooo.wrong_path_uops",
                                           "uops", "sim"};
    mispredicted.add((mispredicts_ - start_mispredicts) * survivors);
    wrong_uops.add((wrong_path_renamed_ - start_wrong_path) * survivors);
  }
}

bool batch_ooo_core::step_cycle() {
  sync_in();
  const bool running = lanes_ == 1 ? step<true>() : step<false>();
  sync_out();
  return running;
}

// ---------------------------------------------------------------------------
// Event plumbing
// ---------------------------------------------------------------------------

template <bool one_lane>
void batch_ooo_core::drive_prf_port(const std::uint32_t* values) {
  const int port = prf_ports_used_this_cycle_++;
  if (port >= 8) {
    return; // the schedule stage bounds issue by the port budget
  }
  const std::size_t base = static_cast<std::size_t>(port) * width<one_lane>();
  const auto port_lane = static_cast<std::uint8_t>(port);
  for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    emit(l, component::prf_read_port, port_lane,
         prf_port_state_[base + l], values[l], cycle_);
    prf_port_state_[base + l] = values[l];
  }
}

void batch_ooo_core::emit_all_lanes(component comp, std::uint8_t port,
                                    std::uint32_t before, std::uint32_t after,
                                    std::uint64_t at_cycle) {
  if (!record_activity_ || before == after) {
    return;
  }
  activity_event ev;
  ev.cycle = static_cast<std::uint32_t>(at_cycle);
  ev.comp = comp;
  ev.lane = port;
  ev.toggles = static_cast<std::uint8_t>(std::popcount(before ^ after));
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    activity_[l].push_back(ev);
  }
}

// ---------------------------------------------------------------------------
// Retirement + store buffer
// ---------------------------------------------------------------------------

template <bool one_lane>
void batch_ooo_core::retire_stage() {
  const auto sb_capacity =
      static_cast<std::size_t>(config_.ooo.store_buffer_entries);
  int retired_now = 0;
  while (rob_count_ > 0 && retired_now < config_.ooo.retire_width &&
         !halted_) {
    rob_entry& head = rob_[rob_head_];
    if (!head.completed) {
      break;
    }
    if (head.is_store && sb_count_ >= sb_capacity) {
      break; // store buffer full: commit stalls
    }

    if (head.is_store) {
      std::size_t tail = sb_head_ + sb_count_;
      if (tail >= sb_capacity) {
        tail -= sb_capacity;
      }
      const std::size_t src = rob_head_ * width<one_lane>();
      const std::size_t dst = tail * width<one_lane>();
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        sb_addr_[dst + l] = rob_store_addr_[src + l];
      }
      ++sb_count_;
    }
    if (head.is_mark) {
      marks_.push_back(mark_stamp{head.mark_id, cycle_, multi_rename_cycles_});
      if (has_cutoff_mark_ && head.mark_id == cutoff_mark_) {
        record_activity_ = false;
      }
    }
    if (head.is_halt) {
      halted_ = true;
    }
    if (head.has_value) {
      const auto lane = static_cast<std::uint8_t>(retired_now % 4);
      const std::size_t base =
          static_cast<std::size_t>(lane) * width<one_lane>();
      const std::size_t vrow = rob_head_ * width<one_lane>();
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit(l, component::rob_retire_port, lane,
             retire_port_state_[base + l], rob_value_[vrow + l],
             cycle_);
        retire_port_state_[base + l] = rob_value_[vrow + l];
      }
    }
    if (head.dest_arch != no_reg && head.old_preg != no_reg) {
      free_pregs_.push_back(head.old_preg);
    }
    if (flags_producer_slot_ == static_cast<std::uint32_t>(rob_head_)) {
      flags_producer_slot_ = no_slot;
    }

    head = rob_entry{};
    rob_head_ = rob_head_ + 1 == rob_.size() ? 0 : rob_head_ + 1;
    --rob_count_;
    ++retired_;
    ++retired_now;
  }
  cycle_dirty_ |= retired_now > 0;
}

template <bool one_lane>
void batch_ooo_core::drain_store_buffer() {
  if (sb_count_ == 0) {
    return;
  }
  // One store per cycle; each lane probes its own D-cache at its own
  // address.  The per-trace path ignores the access's return value, so no
  // agreement is needed here — a diverging cache state surfaces (and
  // ejects) at the next load-penalty checkpoint.
  const std::size_t row = sb_head_ * width<one_lane>();
  for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    dcache_[l].access(sb_addr_[row + l]);
  }
  if (++sb_head_ ==
      static_cast<std::size_t>(config_.ooo.store_buffer_entries)) {
    sb_head_ = 0;
  }
  --sb_count_;
  cycle_dirty_ = true;
}

// ---------------------------------------------------------------------------
// Completion broadcast (CDB)
// ---------------------------------------------------------------------------

void batch_ooo_core::deliver_operand(std::size_t slot) {
  rs_entry& rs = rs_[slot];
  if (--rs.wait_count == 0) {
    ready_mask_ |= std::uint64_t{1} << (rs.seq & (age_ring_size - 1));
  }
}

void batch_ooo_core::complete_rob(std::uint32_t slot) {
  rob_[slot].completed = true;
  auto& waiters = rob_flag_waiters_[slot];
  for (const std::uint8_t rs_slot : waiters) {
    rs_[rs_slot].flags_wait_slot = no_slot;
    deliver_operand(rs_slot);
  }
  waiters.clear();
}

void batch_ooo_core::add_exec(const exec_entry& ex) {
  ++exec_in_flight_;
  if (ex.complete_at - cycle_ < age_ring_size) {
    exec_wheel_[ex.complete_at & (age_ring_size - 1)].push_back(ex);
  } else {
    exec_far_.push_back(ex);
  }
}

template <bool one_lane>
void batch_ooo_core::broadcast_stage() {
  if (!exec_far_.empty()) [[unlikely]] {
    for (std::size_t i = 0; i < exec_far_.size();) {
      if (exec_far_[i].complete_at - cycle_ < age_ring_size) {
        exec_wheel_[exec_far_[i].complete_at & (age_ring_size - 1)]
            .push_back(exec_far_[i]);
        exec_far_[i] = exec_far_.back();
        exec_far_.pop_back();
      } else {
        ++i;
      }
    }
  }

  auto& bucket = exec_wheel_[cycle_ & (age_ring_size - 1)];
  for (const exec_entry& done : bucket) {
    cycle_dirty_ = true;
    --exec_in_flight_;
    if (!done.broadcasts) {
      complete_rob(done.rob_slot);
      continue;
    }
    auto it = pending_bcast_.begin();
    while (it != pending_bcast_.end() && it->seq > done.seq) {
      ++it;
    }
    pending_bcast_.insert(it, done);
  }
  bucket.clear();

  const int lanes_now = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(config_.ooo.cdb_width),
      pending_bcast_.size()));
  for (int lane = 0; lane < lanes_now; ++lane) {
    const exec_entry done = pending_bcast_.back();
    pending_bcast_.pop_back();
    cycle_dirty_ = true;

    const auto bus = static_cast<std::uint8_t>(lane % 4);
    const std::size_t base = static_cast<std::size_t>(bus) * width<one_lane>();
    // The ROB slot stays allocated until retirement (which runs before
    // this stage each cycle), so its value row is the µop's result — the
    // per-trace path's exec_entry::result — read per lane here.
    const std::size_t vrow =
        static_cast<std::size_t>(done.rob_slot) * width<one_lane>();
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit(l, component::cdb, bus, cdb_state_[base + l],
           rob_value_[vrow + l], cycle_);
      cdb_state_[base + l] = rob_value_[vrow + l];
    }
    // The destination tag is lane-invariant: one event for every lane.
    emit_all_lanes(component::rs_tag_bus, bus, tag_bus_state_[bus],
                   done.dest_preg, cycle_);
    tag_bus_state_[bus] = done.dest_preg;

    preg_ready_[done.dest_preg] = 1;
    auto& waiters = preg_waiters_[done.dest_preg];
    for (const std::uint16_t w : waiters) {
      const std::size_t slot = w >> 2;
      rs_[slot].src_preg[w & 3] = no_reg;
      deliver_operand(slot);
    }
    waiters.clear();
    complete_rob(done.rob_slot);
  }
}

// ---------------------------------------------------------------------------
// Select + issue
// ---------------------------------------------------------------------------

bool batch_ooo_core::rs_fits_units(const rs_entry& rs, int prf_ports,
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

template <bool one_lane>
void batch_ooo_core::issue_entry(rs_entry& rs, int alu_index) {
  const std::size_t lanes = width<one_lane>();
  const auto slot = static_cast<std::size_t>(&rs - rs_.data());
  for (std::size_t s = 0; s < rs.n_src; ++s) {
    drive_prf_port<one_lane>(&rs_src_value_[(slot * max_sources + s) * lanes]);
  }

  // Per-lane squash mask: a lane whose condition failed takes the same
  // trip (unit occupancy, latency, D-cache probe, CDB slot) but touches
  // no datapath structure beyond the PRF reads above.
  const std::uint64_t squash = rs_squash_[slot];
  const std::size_t row = slot * lanes;

  std::uint64_t complete_at;
  if (rs.is_load) {
    // Divergence checkpoint: each lane probes its own D-cache at its own
    // address, but the penalty is a shared scheduling input.
    std::array<int, max_batch_lanes> pen;
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      pen[l] = dcache_[l].access(rs_address_[row + l]);
    }
    agree(pen.data());
    const int penalty = pen[leader()];
    complete_at =
        cycle_ + static_cast<std::uint64_t>(config_.lsu_latency + penalty);
    if (!config_.lsu_pipelined) {
      lsu_busy_until_ = complete_at;
    } else if (penalty > 0) {
      lsu_busy_until_ = cycle_ + static_cast<std::uint64_t>(penalty);
    }
    for (std::uint64_t m = active<one_lane>() & ~squash; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit(l, component::mdr, 0, mdr_state_[l], rs_mem_word_[row + l],
           cycle_ + 2);
      mdr_state_[l] = rs_mem_word_[row + l];
    }
    if (rs.is_subword && config_.has_align_buffer) {
      for (std::uint64_t m = active<one_lane>() & ~squash; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit(l, component::align_buffer, 0, align_buffer_state_[l],
             rs_sub_value_[row + l], cycle_ + 3);
        align_buffer_state_[l] = rs_sub_value_[row + l];
      }
    }
  } else if (rs.is_store) {
    complete_at = cycle_ + 1;
    for (std::uint64_t m = active<one_lane>() & ~squash; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit(l, component::mdr, 0, mdr_state_[l], rs_mem_word_[row + l],
           cycle_ + 2);
      mdr_state_[l] = rs_mem_word_[row + l];
    }
    if (rs.is_subword && config_.has_align_buffer) {
      for (std::uint64_t m = active<one_lane>() & ~squash; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit(l, component::align_buffer, 0, align_buffer_state_[l],
             rs_sub_value_[row + l], cycle_ + 3);
        align_buffer_state_[l] = rs_sub_value_[row + l];
      }
    }
  } else if (rs.is_mul) {
    complete_at = cycle_ + static_cast<std::uint64_t>(config_.mul_latency);
    if (!config_.mul_pipelined) {
      mul_busy_until_ = complete_at;
    }
    const std::uint32_t* src0 = &rs_src_value_[slot * max_sources * lanes];
    const std::uint32_t* src1 =
        &rs_src_value_[(slot * max_sources + 1) * lanes];
    const std::size_t vrow =
        static_cast<std::size_t>(rs.rob_slot) * lanes;
    for (std::uint64_t m = active<one_lane>() & ~squash; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit(l, component::alu_in_latch, 0, alu_latch_state_[l], src0[l],
           cycle_ + 1);
      alu_latch_state_[l] = src0[l];
    }
    if (rs.n_src > 1) {
      for (std::uint64_t m = active<one_lane>() & ~squash; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit(l, component::alu_in_latch, 1, alu_latch_state_[lanes + l],
             src1[l], cycle_ + 1);
        alu_latch_state_[lanes + l] = src1[l];
      }
    }
    for (std::uint64_t m = active<one_lane>() & ~squash; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit_weight(l, component::alu_out, 0, rob_value_[vrow + l],
                  complete_at - 1);
    }
  } else {
    std::uint64_t latency = 1;
    if (rs.used_shifter) {
      latency += static_cast<std::uint64_t>(config_.shift_extra_latency);
      for (std::uint64_t m = active<one_lane>() & ~squash; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit_weight(l, component::shift_buffer, 0,
                    rs_shift_value_[row + l], cycle_ + 1);
      }
    }
    complete_at = cycle_ + latency;
    const std::size_t base =
        static_cast<std::size_t>(alu_index * 2) * lanes;
    const std::uint32_t* src0 = &rs_src_value_[slot * max_sources * lanes];
    const std::uint32_t* src1 =
        &rs_src_value_[(slot * max_sources + 1) * lanes];
    const std::size_t vrow =
        static_cast<std::size_t>(rs.rob_slot) * lanes;
    if (rs.n_src > 0) {
      for (std::uint64_t m = active<one_lane>() & ~squash; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit(l, component::alu_in_latch,
             static_cast<std::uint8_t>(alu_index * 2),
             alu_latch_state_[base + l], src0[l], cycle_ + 1);
        alu_latch_state_[base + l] = src0[l];
      }
    }
    if (rs.n_src > 1) {
      for (std::uint64_t m = active<one_lane>() & ~squash; m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        emit(l, component::alu_in_latch,
             static_cast<std::uint8_t>(alu_index * 2 + 1),
             alu_latch_state_[base + lanes + l], src1[l], cycle_ + 1);
        alu_latch_state_[base + lanes + l] = src1[l];
      }
    }
    for (std::uint64_t m = active<one_lane>() & ~squash; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      emit_weight(l, component::alu_out,
                  static_cast<std::uint8_t>(alu_index),
                  rob_value_[vrow + l], complete_at);
    }
  }

  exec_entry ex;
  ex.complete_at = complete_at;
  ex.rob_slot = rs.rob_slot;
  ex.seq = rs.seq;
  ex.dest_preg = rob_[rs.rob_slot].dest_preg;
  ex.broadcasts = ex.dest_preg != no_reg;
  add_exec(ex);

  rs.busy = false;
  --rs_used_;
  rs_busy_mask_ &= ~(std::uint64_t{1} << slot);
  ready_mask_ &= ~(std::uint64_t{1} << (rs.seq & (age_ring_size - 1)));
}

template <bool one_lane>
void batch_ooo_core::schedule_stage() {
  prf_ports_used_this_cycle_ = 0;
  if (ready_mask_ == 0) {
    return;
  }
  const int prf_ports = std::min(std::max(4, 2 * config_.issue_width), 8);
  int issued = 0;
  int alus_used = 0;
  bool alu0_used = false;
  bool lsu_used = false;

  const std::uint32_t head_pos = rob_[rob_head_].seq & (age_ring_size - 1);
  while (issued < config_.issue_width && ready_mask_ != 0) {
    std::uint64_t m = std::rotr(ready_mask_, static_cast<int>(head_pos));
    rs_entry* pick = nullptr;
    while (m != 0) {
      const auto offset = static_cast<std::uint32_t>(std::countr_zero(m));
      const std::uint32_t pos = (head_pos + offset) & (age_ring_size - 1);
      rs_entry& candidate = rs_[age_to_slot_[pos]];
      if (rs_fits_units(candidate, prf_ports, alus_used, alu0_used,
                        lsu_used)) {
        pick = &candidate;
        break;
      }
      m &= m - 1;
    }
    if (pick == nullptr) {
      break;
    }
    int alu_index = 0;
    if (pick->uses_lsu) {
      lsu_used = true;
    } else {
      ++alus_used;
      if (pick->needs_alu0 || !alu0_used) {
        alu_index = 0;
        alu0_used = true;
      } else {
        alu_index = 1;
      }
    }
    issue_entry<one_lane>(*pick, alu_index);
    ++issued;
  }
  cycle_dirty_ |= issued > 0;
}

// ---------------------------------------------------------------------------
// Rename: in-order front end, architectural execution per lane
// ---------------------------------------------------------------------------

void batch_ooo_core::dispatch_to_rs(std::uint32_t rob_slot,
                                    std::size_t rs_slot) {
  rs_entry& placed = rs_[rs_slot];
  placed.busy = true;
  placed.rob_slot = rob_slot;
  rs_busy_mask_ |= std::uint64_t{1} << rs_slot;
  for (std::size_t s = 0; s < placed.n_src; ++s) {
    if (placed.src_preg[s] != no_reg) {
      preg_waiters_[placed.src_preg[s]].push_back(
          static_cast<std::uint16_t>((rs_slot << 2) | s));
      ++placed.wait_count;
    }
  }
  if (placed.flags_wait_slot != no_slot) {
    rob_flag_waiters_[placed.flags_wait_slot].push_back(
        static_cast<std::uint8_t>(rs_slot));
    ++placed.wait_count;
  }
  const std::uint32_t pos = placed.seq & (age_ring_size - 1);
  age_to_slot_[pos] = static_cast<std::uint8_t>(rs_slot);
  if (placed.wait_count == 0) {
    ready_mask_ |= std::uint64_t{1} << pos;
  }
  ++rs_used_;
}

std::uint8_t batch_ooo_core::alloc_preg() {
  const std::uint8_t p = free_pregs_.back();
  free_pregs_.pop_back();
  preg_ready_[p] = 0;
  return p;
}

template <bool one_lane>
batch_ooo_core::rename_result batch_ooo_core::rename_one(int slot) {
  const std::size_t lanes = width<one_lane>();
  // The wrong path renames through here too, against the per-lane shadow
  // registers: it never writes memory, never trains the predictor, and
  // parks at a mark/halt (serializing µops wait for an empty machine,
  // which the unresolved branch makes impossible).
  const bool wrong = wrong_path_;
  std::vector<cpu_state>& st = wrong ? spec_state_ : state_;
  std::size_t& pc = wrong ? spec_pc_ : pc_;
  const std::size_t index = pc;
  const instruction& ins = prog_->code[index];
  const instruction_static& statics = image_.statics(index);
  const bool serializing = ins.op == opcode::mark || ins.op == opcode::halt;

  // All structural stalls are checked before any architectural effect —
  // shared decisions over shared occupancy state.
  if (serializing && wrong) {
    spec_fetch_done_ = true;
    return rename_result::stall;
  }
  if (serializing &&
      (rob_count_ > 0 || slot > 0 || !in_flight_empty() || rs_used_ > 0)) {
    return rename_result::stall;
  }
  if (rob_count_ >= rob_.size() || rs_used_ >= rs_.size() ||
      free_pregs_.empty()) {
    return rename_result::stall;
  }
  // Wrong-path fetch probes the I-cache like any other.
  const int penalty = icache_.access(prog_->address_of(index));
  if (penalty > 0) {
    fetch_ready_ = cycle_ + static_cast<std::uint64_t>(penalty);
    return rename_result::stall;
  }

  // The ROB and RS records are built in place: rob_slot and rs_slot are
  // free, and nothing reads a free slot.
  std::size_t tail = rob_head_ + rob_count_;
  if (tail >= rob_.size()) {
    tail -= rob_.size();
  }
  const auto rob_slot = static_cast<std::uint32_t>(tail);
  rob_entry& entry = rob_[rob_slot];
  entry = rob_entry{};
  entry.seq = next_seq_;
  const std::size_t vrow = static_cast<std::size_t>(rob_slot) * lanes;
  // The value row must be zero for entries that never write it: alu_out's
  // Hamming-weight emission for a dest-less µop (cmp/tst) reads this row
  // where the oracle reads a zero-initialized rs_entry::result.
  for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    rob_value_[vrow + l] = 0;
  }

  // Prospective RS slot: the first free one (countr_zero over the
  // inverted busy mask).  The record and its lane-major rows are written
  // in place during rename; dispatch_to_rs makes the slot resident.
  const auto rs_slot =
      static_cast<std::size_t>(std::countr_zero(~rs_busy_mask_));
  const std::size_t rs_row = rs_slot * lanes;
  rs_entry& rs = rs_[rs_slot];
  rs = rs_entry{};
  rs.seq = entry.seq;

  // Per-lane condition outcome.  Only correct-path branches promote it to
  // a shared control input (agreement below); everywhere else it stays
  // lane-local data, gating lane-local effects via the squash mask.
  std::array<std::uint8_t, max_batch_lanes> cond_ok;
  std::uint64_t exec_mask;
  if (ins.cond == isa::condition::al) {
    exec_mask = ~std::uint64_t{0};
  } else {
    exec_mask = 0;
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      const bool ok = isa::condition_passes(ins.cond, st[l].f);
      cond_ok[l] = ok ? 1 : 0;
      if (ok) {
        exec_mask |= std::uint64_t{1} << l;
      }
    }
  }

  std::size_t next_pc = index + 1;

  bool to_rs = false;
  bool redirected = false;
  const auto add_src = [&](reg r) {
    const std::uint8_t preg = rat_[isa::index_of(r)];
    rs.src_preg[rs.n_src] = preg_ready_[preg] ? no_reg : preg;
    std::uint32_t* dst =
        &rs_src_value_[(rs_slot * max_sources + rs.n_src) * lanes];
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      dst[l] = st[l].reg(r);
    }
    ++rs.n_src;
  };
  const auto rename_dest = [&](reg rd, const std::uint32_t* values) {
    entry.dest_arch = isa::index_of(rd);
    entry.old_preg = rat_[entry.dest_arch];
    entry.dest_preg = alloc_preg();
    rat_[entry.dest_arch] = entry.dest_preg;
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      rob_value_[vrow + l] = values[l];
    }
    entry.has_value = true;
    // RAT write port: the tag is lane-invariant, one event per lane.
    const auto lane = static_cast<std::uint8_t>(slot % 4);
    emit_all_lanes(component::rat_port, lane, rat_port_state_[lane],
                   entry.dest_preg, cycle_);
    rat_port_state_[lane] = entry.dest_preg;
  };
  // bl's link value is known at rename on every lane.
  const auto rename_link = [&] {
    const std::uint32_t link = prog_->address_of(index + 1);
    lane_values link_row;
    link_row.fill(link);
    rename_dest(reg::lr, link_row.data());
    preg_ready_[entry.dest_preg] = 1;
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      st[l].set_reg(reg::lr, link);
    }
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
    entry.completed = true;
    pc = next_pc;
  } else if (wrong && isa::is_branch(ins)) [[unlikely]] {
    // Wrong-path branches steer fetch by prediction alone: no lane data,
    // no agreement, no nested checkpoint — the one in-flight mispredict
    // flushes everything younger than itself anyway.
    bool taken = true;
    next_pc = predict_next(ins, index, taken);
    if (taken && ins.op == opcode::bl) {
      rename_link();
    }
    entry.completed = true;
    pc = next_pc;
  } else if (isa::is_branch(ins)) {
    // Divergence checkpoint: the condition outcome steers the front end.
    bool exec = true;
    if (ins.cond != isa::condition::al) {
      agree(cond_ok.data());
      exec = ((exec_mask >> leader()) & 1U) != 0;
    }
    if (ins.op == opcode::bx) {
      if (exec) {
        // Second checkpoint: the indirect target IS the fetch stream.
        lane_values target;
        for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
          const auto l = static_cast<std::size_t>(std::countr_zero(m));
          target[l] = st[l].reg(ins.op2.rm);
        }
        agree(target.data());
        const auto target_index =
            prog_->index_of_address(target[leader()]);
        if (!target_index) {
          // Return past the outermost frame: the front end stops and the
          // machine drains to a halt (no speculation on the drain).
          frontend_done_ = true;
          entry.completed = true;
          entry.is_halt = true;
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
    // Under a real predictor a mispredict leaves this entry incomplete —
    // retirement stalls at it, so no wrong-path µop can ever commit —
    // and sends fetch down the predicted path until the flush.
    if (spec_enabled_) [[unlikely]] {
      predict_branch(ins, index, exec, next_pc, rob_slot, entry.seq);
    }
    redirected = next_pc != index + 1;
    if (redirected && !config_.perfect_branch_prediction) {
      fetch_ready_ =
          cycle_ + 1 +
          static_cast<std::uint64_t>(config_.branch_mispredict_penalty);
    }
    entry.completed = !wrong_path_;
    pc = next_pc;
  } else if (statics.is_memory) {
    add_src(ins.mem.base);
    std::uint32_t* addr = &rs_address_[rs_row];
    if (ins.mem.reg_offset) {
      add_src(ins.mem.offset_reg);
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        const std::uint32_t offset = st[l].reg(ins.mem.offset_reg)
                                     << ins.mem.offset_shift;
        const std::uint32_t base = st[l].reg(ins.mem.base);
        addr[l] = ins.mem.subtract ? base - offset : base + offset;
      }
    } else {
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        const std::uint32_t base = st[l].reg(ins.mem.base);
        addr[l] = ins.mem.subtract ? base - ins.mem.offset_imm
                                   : base + ins.mem.offset_imm;
      }
    }
    rs.uses_lsu = true;
    rs.is_subword = isa::is_subword(ins);
    if (statics.reads_flags) {
      wait_flags();
    }

    rs_squash_[rs_slot] = active<one_lane>() & ~exec_mask;
    if (isa::is_load(ins)) {
      if (ins.cond != isa::condition::al) {
        add_src(ins.rd); // select µop reads the old destination
      }
      // A wrong-path address is arbitrary: its loads read with forced
      // alignment so they cannot fault the simulator.  Every older store
      // already wrote memory at rename (perfect store-to-load forwarding).
      const std::uint32_t word_mask = wrong ? ~3U : ~0U;
      const std::uint32_t half_mask = wrong ? ~1U : ~0U;
      lane_values value;
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        value[l] = st[l].reg(ins.rd); // kept on a failed condition
        if ((exec_mask >> l) & 1U) {
          switch (ins.op) {
          case opcode::ldr:
            value[l] = memory_[l].read32(addr[l] & word_mask);
            break;
          case opcode::ldrb:
            value[l] = memory_[l].read8(addr[l]);
            break;
          case opcode::ldrh:
            value[l] = memory_[l].read16(addr[l] & half_mask);
            break;
          default:
            break;
          }
          rs_mem_word_[rs_row + l] = memory_[l].containing_word(addr[l]);
        }
      }
      rename_dest(ins.rd, value.data());
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        st[l].set_reg(ins.rd, value[l]);
        rs_sub_value_[rs_row + l] = value[l];
      }
      rs.is_load = true;
    } else {
      lane_values data;
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        data[l] = st[l].reg(ins.rd);
      }
      add_src(ins.rd); // store data is a register source
      for (std::uint64_t m = active<one_lane>() & exec_mask; m != 0;
           m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        // Wrong-path stores write nothing (younger wrong-path loads see
        // stale memory); the MDR still observes the target word.
        if (!wrong) {
          switch (ins.op) {
          case opcode::str:
            memory_[l].write32(addr[l], data[l]);
            break;
          case opcode::strb:
            memory_[l].write8(addr[l], static_cast<std::uint8_t>(data[l]));
            break;
          case opcode::strh:
            memory_[l].write16(addr[l],
                               static_cast<std::uint16_t>(data[l]));
            break;
          default:
            break;
          }
        }
        rs_mem_word_[rs_row + l] = memory_[l].containing_word(addr[l]);
        rs_sub_value_[rs_row + l] = ins.op == opcode::strb
                                        ? (data[l] & 0xffU)
                                        : (data[l] & 0xffffU);
      }
      rs.is_store = true;
      // A squashed store still occupies its store-buffer slot at commit
      // (the drain probes the computed address; memory is untouched).
      entry.is_store = true;
      entry.has_value = true;
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        rob_store_addr_[vrow + l] = addr[l];
        rob_value_[vrow + l] = data[l];
      }
    }
    to_rs = true;
    pc = next_pc;
  } else if (ins.op == opcode::mul || ins.op == opcode::mla) {
    add_src(ins.rn);
    add_src(ins.op2.rm);
    // Lane rows are filled for active lanes only: zeroing whole 64-lane
    // arrays per instruction would dominate a narrow batch.
    const bool mla = ins.op == opcode::mla;
    if (mla) {
      add_src(ins.ra);
    }
    lane_values acc;
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      acc[l] = mla ? st[l].reg(ins.ra) : 0;
    }
    if (statics.reads_flags) {
      wait_flags();
    }
    if (ins.cond != isa::condition::al) {
      add_src(ins.rd); // select µop reads the old destination
    }
    rs.is_mul = true;
    rs.needs_alu0 = true;
    rs_squash_[rs_slot] = active<one_lane>() & ~exec_mask;
    lane_values result;
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      result[l] = ((exec_mask >> l) & 1U) != 0
                      ? st[l].reg(ins.rn) * st[l].reg(ins.op2.rm) + acc[l]
                      : st[l].reg(ins.rd);
    }
    rename_dest(ins.rd, result.data());
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      st[l].set_reg(ins.rd, result[l]);
    }
    if (ins.set_flags) {
      for (std::uint64_t m = active<one_lane>() & exec_mask; m != 0;
           m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        st[l].f.n = (result[l] >> 31) != 0;
        st[l].f.z = result[l] == 0;
      }
      // The flag rename happens either way: younger flag readers wait on
      // this µop independent of the condition's outcome.
      flags_producer_slot_ = rob_slot;
    }
    to_rs = true;
    pc = next_pc;
  } else {
    // Data processing (incl. movw/movt and standalone shifts).
    const bool has_rn = !(ins.op == opcode::mov || ins.op == opcode::mvn ||
                          ins.op == opcode::movw || ins.op == opcode::movt);
    if (has_rn) {
      add_src(ins.rn);
    }
    lane_values rn_value;
    for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      rn_value[l] = has_rn ? st[l].reg(ins.rn) : 0;
    }

    lane_values result;
    bool writes_result = true;
    bool flags_op = false;
    if (ins.op == opcode::movw) {
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        result[l] = ins.imm16;
      }
    } else if (ins.op == opcode::movt) {
      add_src(ins.rd);
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        result[l] = (st[l].reg(ins.rd) & 0xffffU) |
                    (static_cast<std::uint32_t>(ins.imm16) << 16);
      }
    } else {
      // The operand-2 *structure* (used_shifter, the source registers it
      // adds) is static per instruction; only the values are per lane.
      // A lane's new flags are written as soon as its result is known:
      // nothing later in this rename reads them.
      flags_op = isa::writes_flags(ins);
      const std::uint64_t flag_lanes = flags_op ? exec_mask : 0;
      bool used_shifter = false;
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        const operand2_value op2 = eval_operand2(
            ins, [&st, l](reg r) { return st[l].reg(r); }, st[l].f.c);
        rs_shift_value_[rs_row + l] = op2.value;
        const alu_result dp = execute_dp(ins.op, rn_value[l], op2.value,
                                         op2.carry, st[l].f);
        result[l] = dp.value;
        if ((flag_lanes >> l) & 1U) {
          st[l].f = dp.f;
        }
        writes_result = dp.writes_result;
        used_shifter = op2.used_shifter;
      }
      if (ins.op2.k == isa::operand2::kind::reg_shifted) {
        add_src(ins.op2.rm);
        if (ins.op2.shift.by_register) {
          add_src(ins.op2.shift.amount_reg);
        }
      }
      rs.used_shifter = used_shifter;
      rs.needs_alu0 = used_shifter;
    }

    if (statics.reads_flags) {
      wait_flags();
    }
    rs_squash_[rs_slot] = active<one_lane>() & ~exec_mask;
    if (writes_result) {
      if (ins.cond != isa::condition::al && ins.op != opcode::movt) {
        add_src(ins.rd);
      }
      lane_values committed;
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        committed[l] = ((exec_mask >> l) & 1U) != 0 ? result[l]
                                                    : st[l].reg(ins.rd);
      }
      rename_dest(ins.rd, committed.data());
      for (std::uint64_t m = active<one_lane>(); m != 0; m &= m - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        st[l].set_reg(ins.rd, committed[l]);
      }
    }
    if (flags_op) {
      flags_producer_slot_ = rob_slot;
    }
    to_rs = true;
    pc = next_pc;
  }

  ++rob_count_;
  if (to_rs) {
    dispatch_to_rs(rob_slot, rs_slot);
  }
  ++next_seq_;
  ++(wrong ? wrong_path_renamed_ : renamed_);

  if (pc >= prog_->code.size() && !entry.is_halt) {
    // Ran off the program's end: the front end (or the wrong path) stops.
    (wrong ? spec_fetch_done_ : frontend_done_) = true;
    return rename_result::accepted_stop;
  }
  if (redirected && !config_.perfect_branch_prediction) {
    // The mispredict flush consumed the rest of the group; fetch_ready_
    // already carries the penalty.
    return rename_result::accepted_stop;
  }
  if (serializing) {
    return rename_result::accepted_stop;
  }
  return rename_result::accepted;
}

// ---------------------------------------------------------------------------
// Speculation: prediction and recovery flush (shared control)
// ---------------------------------------------------------------------------

void batch_ooo_core::emit_bp_table(std::uint8_t port, std::uint32_t value) {
  emit_all_lanes(component::bp_table, port, bp_table_state_[port], value,
                 cycle_);
  bp_table_state_[port] = value;
}

void batch_ooo_core::emit_btb_port(std::uint8_t port, std::uint32_t value) {
  emit_all_lanes(component::btb_port, port, btb_port_state_[port], value,
                 cycle_);
  btb_port_state_[port] = value;
}

std::size_t batch_ooo_core::predict_next(const instruction& ins,
                                         std::size_t index, bool& taken) {
  const auto pc32 = static_cast<std::uint32_t>(index);
  const auto target = static_cast<std::size_t>(
      static_cast<std::int64_t>(index) + 1 + ins.branch_offset);
  // Direction: unconditional branches are always "taken" to the decoder.
  // For conditional indirect branches the displacement hint is the
  // fall-through index, so static BTFN predicts not-taken — a front end
  // cannot see an indirect target's direction.
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
  // Target: returns pop the RSB (peek on the wrong path, which never
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

void batch_ooo_core::predict_branch(const instruction& ins,
                                    std::size_t index, bool exec,
                                    std::size_t actual_next,
                                    std::uint32_t rob_slot,
                                    std::uint32_t seq) {
  const auto pc32 = static_cast<std::uint32_t>(index);
  const bool is_return = ins.op == opcode::bx && ins.op2.rm == reg::lr;
  bool taken = true;
  const std::size_t predicted = predict_next(ins, index, taken);
  if (!taken && is_return && exec) {
    // Direction-mispredicted return: the RSB still balances its bl at
    // resolve (a silent repair pop; no prediction came off it).
    predictor_.pop_return();
  }

  // Learn the resolved outcome — agreed across lanes, so shared.
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
  // resolves resolve_latency cycles from now, executing against a shadow
  // copy of each lane's registers/flags seeded here.
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
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    spec_state_[l] = state_[l];
  }
}

void batch_ooo_core::resolve_mispredict() {
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
      preg_waiters_[e.dest_preg].clear();
      free_pregs_.push_back(e.dest_preg);
    }
    rob_flag_waiters_[tail].clear();
    e = rob_entry{};
    --rob_count_;
  }

  // Purge wrong-path reservation-station entries (everything younger
  // than the branch) and their scheduler bookkeeping.
  for (std::uint64_t m = rs_busy_mask_; m != 0; m &= m - 1) {
    const auto slot = static_cast<std::size_t>(std::countr_zero(m));
    rs_entry& rs = rs_[slot];
    if (rs.seq > spec_branch_seq_) {
      rs.busy = false;
      --rs_used_;
      rs_busy_mask_ &= ~(std::uint64_t{1} << slot);
      ready_mask_ &= ~(std::uint64_t{1} << (rs.seq & (age_ring_size - 1)));
    }
  }
  // Drop purged slots from surviving producers' waiter lists (a
  // wrong-path µop can wait on a correct-path result).  Every subscribed
  // slot is now either still busy (live) or just purged, so the busy
  // flag is the exact membership test.
  for (auto& waiters : preg_waiters_) {
    std::erase_if(waiters,
                  [this](std::uint16_t w) { return !rs_[w >> 2].busy; });
  }
  for (auto& waiters : rob_flag_waiters_) {
    std::erase_if(waiters,
                  [this](std::uint8_t rs_slot) { return !rs_[rs_slot].busy; });
  }
  const auto purge_exec = [this](std::vector<exec_entry>& entries) {
    exec_in_flight_ -= std::erase_if(entries, [this](const exec_entry& ex) {
      return ex.seq > spec_branch_seq_;
    });
  };
  for (auto& bucket : exec_wheel_) {
    purge_exec(bucket);
  }
  purge_exec(exec_far_);
  // pending_bcast_ entries already left the wheel (and its in-flight
  // count); they just lose their CDB slot.
  std::erase_if(pending_bcast_, [this](const exec_entry& ex) {
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
  // are reused by the correct path (the age ring needs the in-flight seq
  // window to stay dense), and fetch resumes from the shared pc, which
  // always held the correct next index.
  rob_[branch_slot].completed = true;
  next_seq_ = spec_branch_seq_ + 1;
  wrong_path_ = false;
  spec_fetch_done_ = false;
  spec_branch_slot_ = no_slot;
  cycle_dirty_ = true;
}

template <bool one_lane>
void batch_ooo_core::rename_stage() {
  if (frontend_done_ || cycle_ < fetch_ready_) {
    return;
  }
  if (!wrong_path_ && pc_ >= prog_->code.size()) {
    frontend_done_ = true; // fell off the end without a halt
    return;
  }
  int renamed_now = 0;
  while (renamed_now < config_.ooo.rename_width) {
    // The front end cannot tell it mispredicted: fetch continues down the
    // predicted path — possibly in the same rename group as the branch —
    // until the resolve-cycle flush.
    if (wrong_path_ ? spec_fetch_done_ : pc_ >= prog_->code.size()) {
      break;
    }
    const rename_result r = rename_one<one_lane>(renamed_now);
    if (r == rename_result::stall) {
      break;
    }
    ++renamed_now;
    if (r == rename_result::accepted_stop) {
      break;
    }
  }
  cycle_dirty_ |= renamed_now > 0;
  if (renamed_now >= 2) {
    ++multi_rename_cycles_;
  }
}

std::uint64_t batch_ooo_core::next_event_cycle() const noexcept {
  std::uint64_t next = ~std::uint64_t{0};
  if (exec_in_flight_ > 0) {
    for (std::uint64_t c = cycle_ + 1; c <= cycle_ + age_ring_size; ++c) {
      if (!exec_wheel_[c & (age_ring_size - 1)].empty()) {
        next = std::min(next, c);
        break;
      }
    }
    for (const exec_entry& ex : exec_far_) {
      next = std::min(next, ex.complete_at);
    }
  }
  if (!frontend_done_ && fetch_ready_ > cycle_) {
    next = std::min(next, fetch_ready_);
  }
  if (lsu_busy_until_ > cycle_) {
    next = std::min(next, lsu_busy_until_);
  }
  if (mul_busy_until_ > cycle_) {
    next = std::min(next, mul_busy_until_);
  }
  if (wrong_path_) {
    // The recovery flush is a scheduled event: a fully stalled wrong
    // path (parked fetch, empty pipeline) must still wake up to resolve.
    next = std::min(next, spec_resolve_at_);
  }
  return next == ~std::uint64_t{0} ? cycle_ + 1 : next;
}

template <bool one_lane>
bool batch_ooo_core::step() {
  if (halted_) {
    return false;
  }
  active_lane_cycles_ +=
      static_cast<std::uint64_t>(std::popcount(active<one_lane>()));
  cycle_dirty_ = false;
  if (wrong_path_ && cycle_ >= spec_resolve_at_) [[unlikely]] {
    // The branch resolves at the top of the cycle: the flush happens
    // before retirement (the resolved branch may commit this cycle) and
    // before rename (correct-path fetch restarts this cycle).
    resolve_mispredict();
  }
  retire_stage<one_lane>();
  if (halted_) {
    ++cycle_;
    return false;
  }
  drain_store_buffer<one_lane>();
  broadcast_stage<one_lane>();
  schedule_stage<one_lane>();
  rename_stage<one_lane>();

  if (frontend_done_ && rob_count_ == 0 && in_flight_empty() &&
      sb_count_ == 0) {
    halted_ = true;
  }
  if (!halted_ && !cycle_dirty_) {
    const std::uint64_t next = next_event_cycle();
    idle_skipped_ += next - cycle_ - 1;
    cycle_ = next;
  } else {
    ++cycle_;
  }
  return !halted_;
}

} // namespace usca::sim
