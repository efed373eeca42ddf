// Batched SoA trace simulation: one core model advancing N independent
// traces (lanes) per call.
//
// Campaign workloads simulate the *same* program image thousands of times
// with different data (plaintexts).  On the modelled cores the schedule of
// the AES workload is data-independent — warm caches, select-µop
// predication, straight-line generated code — so per-cycle *control*
// (issue selection, scoreboard/wakeup bookkeeping, dispatch, retirement)
// is identical across traces and can run once per batch, while only the
// *data* (register values, memory words, activity values) differs per
// lane.  The batch engines lay the data out lane-major (structure of
// arrays) and amortize every piece of per-cycle control across the lanes;
// on general programs, lanes whose data-dependent timing diverges from
// the batch are ejected at the first disagreement and re-simulated
// per-trace by the caller.
//
// The divergence protocol guarantees bit-identity for surviving lanes on
// arbitrary programs:
//
//   * the *leader* — the lowest active lane — defines the shared control
//     stream and is never ejected, so a batch run always completes;
//   * every control input that could depend on lane data (condition
//     outcomes steering branches, indirect-branch targets, D-cache hit/
//     miss penalties) is computed per lane and *agreed*: lanes that
//     disagree with the leader are ejected before their value influences
//     any shared decision;
//   * an ejected lane's per-lane state is frozen garbage from that point
//     on; callers check lane_diverged() and redo those traces on a
//     1-lane core.
//
// Implementations, one production engine per design point:
// sim::batch_pipeline (the in-order Cortex-A7 model; batch_pipeline.h)
// and sim::batch_ooo_core (the OoO model, speculation included;
// ooo/batch_ooo_core.h).  A per-trace core is a 1-lane engine:
// sim::pipeline and sim::ooo_core are those engines constructed with one
// lane, whose only lane is the leader and so is never ejected.  The
// independent checks are the oracles: the functional executor for
// architectural state, sim::ooo_reference_core (a 1-lane engine of its
// own) for the OoO schedule, and the golden activity pins.  The
// acquisition engine produces every trace as a lane of a group on one of
// these engines; a `sim_batch` knob (default on, USCA_SIM_BATCH=0 selects
// groups of one) sets the group width — see core/acquisition.h.
#ifndef USCA_SIM_BATCH_SIM_H
#define USCA_SIM_BATCH_SIM_H

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "asmx/program.h"
#include "mem/memory.h"
#include "sim/backend.h"
#include "sim/cpu_state.h"
#include "sim/program_image.h"
#include "sim/uarch_activity.h"

namespace usca::sim {

struct micro_arch_config;

/// Lane-mask machinery (and the OoO age ring) bound batches to 64 lanes.
inline constexpr std::size_t max_batch_lanes = 64;

/// Default batch width when neither the config nor USCA_SIM_BATCH picks
/// one.  The lane sweep in EXPERIMENTS.md rises through 16 lanes and
/// flattens around 32–48 (by 64 the lane-major working set starts
/// falling out of L2); 32 sits on the plateau while keeping a batch's
/// lane state cache-resident.
inline constexpr std::size_t default_sim_batch_lanes = 32;

/// Strict parse of a USCA_SIM_BATCH value: unset / "" selects the default
/// lane count, "0" disables batching (the per-trace escape hatch), an
/// integer in [1, 64] selects that many lanes; anything else throws
/// util::simulation_error listing the valid values.
std::size_t parse_sim_batch_env(const char* value);

/// Lane count a campaign should batch with: USCA_SIM_BATCH, when set,
/// wins (it is the no-rebuild escape hatch); otherwise `config_lanes`
/// decides — negative means "default", 0 means "per-trace", positive is
/// clamped to max_batch_lanes.  Reads the environment on every call so
/// setenv-based tests see the live value.
std::size_t resolve_sim_batch_lanes(int config_lanes);

/// Flushes one batched group's occupancy to telemetry: the
/// `sim.batch.lanes` histogram and the `sim.batch.active_lane_cycles`
/// counter.  Called once per group by the batched acquisition path —
/// never from the cycle loop, and never for per-trace work.
void note_batch_run(std::size_t lanes_active,
                    std::uint64_t active_lane_cycles);

/// A core model advancing `lanes()` traces per cycle.  Shared control
/// (cycle count, marks, recording flags — all in sim::backend) is run
/// once per batch; per-lane data (state, memory, activity stream) is
/// addressed by lane index.  A 1-lane engine is a per-trace core.
class batch_backend : public backend {
public:
  /// Configured lane capacity of this batch.
  std::size_t lanes() const noexcept { return lanes_; }

  /// Restricts the batch to its first `n` lanes (a partial final group);
  /// applied immediately and re-applied by reset().
  void limit_active_lanes(std::size_t n) noexcept {
    active_limit_ = n < lanes_ ? n : lanes_;
    active_mask_ = mask_for_limit();
    diverged_mask_ = 0;
  }
  std::size_t active_lanes() const noexcept { return active_limit_; }

  /// Whether `lane` was ejected during run() (its per-lane state and
  /// activity are garbage; re-simulate it on a 1-lane core).
  bool lane_diverged(std::size_t lane) const noexcept {
    return (diverged_mask_ >> lane) & 1U;
  }
  bool any_lane_diverged() const noexcept { return diverged_mask_ != 0; }

  /// Sum over simulated cycles of the lanes active in that cycle, since
  /// the last reset() — the occupancy a batched group reports
  /// (note_batch_run).
  std::uint64_t active_lane_cycles() const noexcept {
    return active_lane_cycles_;
  }

protected:
  explicit batch_backend(std::size_t lanes)
      : backend(lanes == 0 ? 1
                           : (lanes > max_batch_lanes ? max_batch_lanes
                                                      : lanes)),
        lanes_(activity_.size()),
        active_limit_(lanes_),
        active_mask_(mask_for_limit()) {}

  std::uint64_t mask_for_limit() const noexcept {
    return active_limit_ >= 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << active_limit_) - 1;
  }

  /// The active-lane mask and the lane count as an engine's cycle stages
  /// read them.  The stages are compiled twice: for any width, and
  /// (`one_lane`) for lanes_ == 1, where both are the constant 1 — a
  /// 1-lane batch's only lane is the leader, which is never ejected — so
  /// every lane loop folds to one iteration and a per-trace run through
  /// the engine is as fast as a scalar core.
  template <bool one_lane>
  std::uint64_t active() const noexcept {
    return one_lane ? 1 : active_mask_;
  }
  template <bool one_lane>
  std::size_t width() const noexcept {
    return one_lane ? 1 : lanes_;
  }

  /// Entry agreement, run before the first cycle of every run/step: lanes
  /// whose setup code steered pc or halted away from the leader's cannot
  /// share the control stream and are ejected; the shared front end
  /// starts from the leader's.
  void sync_in() noexcept;
  /// Publishes the shared pc/halted flag to every active lane.
  void sync_out() noexcept;

  /// Lowest active lane: the lane whose data defines the shared control
  /// stream.  Never ejected, so active_mask_ never empties.
  std::size_t leader() const noexcept {
    return static_cast<std::size_t>(std::countr_zero(active_mask_));
  }

  void eject_lane(std::size_t lane) noexcept {
    active_mask_ &= ~(std::uint64_t{1} << lane);
    diverged_mask_ |= std::uint64_t{1} << lane;
  }

  /// Agreement checkpoint: ejects every active lane whose `values[lane]`
  /// differs from the leader's — BEFORE the leader's value steers any
  /// shared control, so an ejected lane's data never influences the
  /// surviving lanes' schedule.
  template <typename T>
  void agree(const T* values) noexcept {
    std::uint64_t m = active_mask_;
    const T expect = values[std::countr_zero(m)];
    m &= m - 1; // the leader agrees with itself
    while (m != 0) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(m));
      if (values[lane] != expect) {
        eject_lane(lane);
      }
      m &= m - 1;
    }
  }

  std::size_t lanes_;
  std::size_t active_limit_;
  std::uint64_t active_mask_ = 0;
  std::uint64_t diverged_mask_ = 0;
  std::uint64_t active_lane_cycles_ = 0; ///< the engines' step() adds
  // Shared front-end position (synced with the lanes at run boundaries).
  std::size_t pc_ = 0;
  bool halted_ = false;
};

/// The one core factory: an engine of the requested kind with `lanes`
/// lanes over a shared program image.  One lane (or 0) gives the
/// per-trace core — sim::pipeline, sim::ooo_core, or the oracle
/// sim::ooo_reference_core when the reference scheduler is selected
/// (ooo_reference_selected); the oracle has no wider form, so more lanes
/// under it throw.
std::unique_ptr<batch_backend> make_batch_backend(
    backend_kind kind, program_image image, const micro_arch_config& config,
    std::size_t lanes);

/// Presents one lane of a batch as a sim::backend so per-trace setup code
/// (acquisition's setup_fn writes registers/memory through backend&) runs
/// unchanged against a batch lane.  Only state access forwards — state()
/// and memory() are the viewed lane's, whatever lane they are asked for;
/// the simulation-driving entry points (run, step_cycle, reset, rebind,
/// warm_caches) throw — the batch is driven as a whole — and the view
/// records nothing itself (no activity buffer: read the batch's).
class batch_lane_view final : public backend {
public:
  batch_lane_view(batch_backend& batch, std::size_t lane) noexcept
      : backend(0), batch_(&batch), lane_(lane) {}

  backend_kind kind() const noexcept override { return batch_->kind(); }
  cpu_state& state(std::size_t = 0) noexcept override {
    return batch_->state(lane_);
  }
  const cpu_state& state(std::size_t = 0) const noexcept override {
    return batch_->state(lane_);
  }
  mem::memory& memory(std::size_t = 0) noexcept override {
    return batch_->memory(lane_);
  }
  const mem::memory& memory(std::size_t = 0) const noexcept override {
    return batch_->memory(lane_);
  }
  const asmx::program& program() const noexcept override {
    return batch_->program();
  }
  std::uint64_t cycles() const noexcept override { return batch_->cycles(); }
  std::uint64_t instructions_issued() const noexcept override {
    return batch_->instructions_issued();
  }

  [[noreturn]] void reset() override;
  [[noreturn]] void rebind(program_image image) override;
  [[noreturn]] void warm_caches() override;
  [[noreturn]] void run(std::uint64_t max_cycles = 50'000'000) override;
  [[noreturn]] bool step_cycle() override;

private:
  batch_backend* batch_;
  std::size_t lane_;
};

} // namespace usca::sim

#endif // USCA_SIM_BATCH_SIM_H
