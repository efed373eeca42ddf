#include "sim/batch_sim.h"

#include <array>
#include <cstdlib>
#include <string>
#include <utility>

#include "sim/batch_pipeline.h"
#include "sim/micro_arch_config.h"
#include "sim/ooo/batch_ooo_core.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::sim {

std::size_t parse_sim_batch_env(const char* value) {
  if (value == nullptr || value[0] == '\0') {
    return default_sim_batch_lanes;
  }
  // Strict decimal parse: the whole string must be digits, and the value
  // must fit the lane budget — a typo must not silently change which
  // simulation engine a campaign runs on.  The scan stops at the first
  // non-digit or once past the budget (so a long digit string cannot
  // overflow), and either leaves an error.
  std::size_t lanes = 0;
  const char* p = value;
  for (; *p >= '0' && *p <= '9' && lanes <= max_batch_lanes; ++p) {
    lanes = lanes * 10 + static_cast<std::size_t>(*p - '0');
  }
  if (*p != '\0' || lanes > max_batch_lanes) {
    throw util::simulation_error(
        std::string("unknown USCA_SIM_BATCH value '") + value +
        "' (valid values: unset, \"\", 0 = per-trace, 1.." +
        std::to_string(max_batch_lanes) + " = batch lanes)");
  }
  return lanes;
}

std::size_t resolve_sim_batch_lanes(int config_lanes) {
  // The environment, when set, wins: USCA_SIM_BATCH=0 is the no-rebuild
  // switch to the per-trace path.  That compares lane counts of one
  // engine; the independent checks are the oracles (batch_sim.h).
  if (const char* env = std::getenv("USCA_SIM_BATCH");
      env != nullptr && env[0] != '\0') {
    return parse_sim_batch_env(env);
  }
  if (config_lanes < 0) {
    return default_sim_batch_lanes;
  }
  const auto lanes = static_cast<std::size_t>(config_lanes);
  return lanes > max_batch_lanes ? max_batch_lanes : lanes;
}

void note_batch_run(std::size_t lanes_active,
                    std::uint64_t active_lane_cycles) {
  static const telem::histogram lanes{"sim.batch.lanes", "lanes", "sim"};
  static const telem::counter lane_cycles{"sim.batch.active_lane_cycles",
                                          "lane-cycles", "sim"};
  lanes.record(static_cast<std::uint64_t>(lanes_active));
  lane_cycles.add(active_lane_cycles);
}

void batch_backend::sync_in() noexcept {
  std::array<std::uint64_t, max_batch_lanes> entry;
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(m));
    const cpu_state& s = state(l);
    entry[l] = (static_cast<std::uint64_t>(s.pc) << 1) | (s.halted ? 1U : 0U);
  }
  agree(entry.data());
  pc_ = state(leader()).pc;
  halted_ = state(leader()).halted;
}

void batch_backend::sync_out() noexcept {
  for (std::uint64_t m = active_mask_; m != 0; m &= m - 1) {
    cpu_state& s = state(static_cast<std::size_t>(std::countr_zero(m)));
    s.pc = pc_;
    s.halted = halted_;
  }
}

void batch_backend::swap_recording(backend& face) noexcept {
  face.activity_.swap(activity_[0]);
  face.marks_.swap(marks_);
  std::swap(face.cutoff_mark_, cutoff_mark_);
  std::swap(face.has_cutoff_mark_, has_cutoff_mark_);
  std::swap(face.record_activity_, record_activity_);
  std::swap(face.record_default_, record_default_);
}

std::unique_ptr<batch_backend> make_batch_backend(
    backend_kind kind, program_image image, const micro_arch_config& config,
    std::size_t lanes) {
  switch (kind) {
  case backend_kind::inorder:
    return std::make_unique<batch_pipeline>(std::move(image), config, lanes);
  case backend_kind::ooo:
    return std::make_unique<batch_ooo_core>(std::move(image), config, lanes);
  }
  throw util::simulation_error("unknown backend kind");
}

namespace {

[[noreturn]] void lane_view_misuse(const char* what) {
  throw util::simulation_error(
      std::string("batch_lane_view: ") + what +
      " must be driven on the batch backend, not a single lane");
}

} // namespace

void batch_lane_view::reset() { lane_view_misuse("reset()"); }
void batch_lane_view::rebind(program_image) { lane_view_misuse("rebind()"); }
void batch_lane_view::warm_caches() { lane_view_misuse("warm_caches()"); }
void batch_lane_view::run(std::uint64_t) { lane_view_misuse("run()"); }
bool batch_lane_view::step_cycle() { lane_view_misuse("step_cycle()"); }

} // namespace usca::sim
