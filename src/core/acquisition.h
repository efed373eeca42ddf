// The parallel acquisition engine.
//
// Every experiment in the repository runs the same inner loop: randomize
// one trial's inputs, simulate the program on a core model, synthesize a
// power trace of a marker-delimited window, and stream the trace into a
// statistical accumulator.  The paper's campaigns run to 100k traces, so
// this loop is the wall-clock bottleneck of the whole reproduction.  This
// engine is that loop, once: the caller supplies the shared program image
// and a per-index setup callback; the engine owns one resettable core +
// synthesizer per worker, shards the trials into groups, and delivers
// records to the sink in strict index order.  A group is the trials one
// core simulates in lockstep, one per lane (up to 64); a per-trace core
// is a 1-lane engine, so per-trace work — USCA_SIM_BATCH=0, the OoO
// reference scheduler, produce(), the redo of an ejected lane — is
// groups of one on the same path.  The AES attack campaign
// (core/campaign.h) is one such setup: it installs the key schedule and a
// plaintext per trial.
//
// Determinism guarantee:
//
//  * Every trial is seeded independently from (master seed, index) via
//    splitmix64, so record i is bit-identical no matter which worker
//    produces it, how many workers exist, how the scheduler interleaves
//    them, or whether it ran per-trace or as a lane of any batch.
//  * Completed records are re-ordered and delivered in strict index order
//    on the calling thread, so floating-point accumulation order — and
//    with it every downstream statistic — is fixed at any thread count.
//
// The per-index seeding also gives campaigns the prefix property: the
// first N records of a longer campaign equal the N records of a shorter
// one with the same seed, and disjoint [first_index, first_index+traces)
// ranges extend a campaign without re-simulating its prefix.
#ifndef USCA_CORE_ACQUISITION_H
#define USCA_CORE_ACQUISITION_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/trace_stream.h"
#include "crypto/aes_codegen.h"
#include "power/second_core.h"
#include "power/synthesizer.h"
#include "sim/backend.h"
#include "sim/batch_sim.h"
#include "sim/micro_arch_config.h"
#include "sim/program_image.h"
#include "util/rng.h"

namespace usca::core {

/// Marker-delimited acquisition window: the synthesized trace covers the
/// cycles from `begin_mark` (inclusive) to `end_mark` (exclusive).
struct campaign_window {
  std::uint16_t begin_mark = crypto::mark_encrypt_begin;
  std::uint16_t end_mark = crypto::mark_round1_end;
};

/// Window lookup over a run's marks.  Binds to the FIRST occurrence of
/// each mark id — the same occurrence at which the backend's activity
/// cutoff disarms recording — so a program that issues its end-mark id
/// repeatedly cannot end up with a silently unrecorded window tail.
/// Returns false when either mark is missing or the window is empty.
bool find_campaign_window(const std::vector<sim::mark_stamp>& marks,
                          const campaign_window& window, std::uint64_t& begin,
                          std::uint64_t& end) noexcept;

struct acquisition_config {
  std::size_t traces = 0;      ///< number of acquisitions
  std::size_t first_index = 0; ///< global index of the first acquisition
  unsigned threads = 0;        ///< worker count; 0 = hardware concurrency
  std::uint64_t seed = 0;      ///< master seed (per-index derivation)
  int averaging = 1;           ///< executions averaged per acquisition
  /// Marker-delimited synthesis window (ignored when full_run_window).
  campaign_window window{};
  /// Synthesize the whole run instead of a marker window: samples cover
  /// [0, cycles + full_run_tail_pad) — the portability study's view.
  bool full_run_window = false;
  std::uint32_t full_run_tail_pad = 4; ///< catches trailing write-backs
  /// When false the pipeline records no activity and no trace is
  /// synthesized — pure timing acquisitions (CPI measurements).
  bool synthesize = true;
  /// Copy the window's activity events into the record for indices below
  /// this bound (the characterizer's attribution pass needs them).
  std::size_t keep_activity_first = 0;
  power::synthesis_config power{};
  sim::micro_arch_config uarch = sim::cortex_a7();
  /// Core model the trials run on (in-order pipeline or OoO backend).
  sim::backend_kind backend = sim::backend_kind::inorder;
  /// Batched-simulation width (sim/batch_sim.h): -1 selects the default
  /// lane count, 0 runs per-trace (groups of one on 1-lane cores), 1..64
  /// batches that many trials per run.  USCA_SIM_BATCH, when set,
  /// overrides this field (USCA_SIM_BATCH=0 reverts every campaign to
  /// per-trace).  Trials whose data-dependent timing diverges from their
  /// batch are ejected and transparently redone as groups of one, so
  /// results are bit-identical at every lane count.
  int sim_batch_lanes = -1;
};

/// One completed acquisition, delivered in index order.
struct acquisition_record {
  std::size_t index = 0;
  power::trace samples;           ///< empty when config.synthesize is false
  std::uint64_t window_begin = 0; ///< absolute cycle of samples[0]
  std::uint64_t window_end = 0;
  std::uint64_t cycles = 0;       ///< total simulated cycles
  std::uint64_t instructions = 0; ///< instructions issued over the run
  std::vector<sim::mark_stamp> marks;
  /// Values the setup callback recorded for this trial (hypothesis-model
  /// inputs, secrets, ...), untouched by the engine.
  std::vector<double> labels;
  /// Window activity events, kept only for index < keep_activity_first.
  sim::activity_trace window_activity;
};

class acquisition_campaign {
public:
  /// Randomizes one trial: install registers/memory on the (reset)
  /// backend from the trial's private index-seeded stream, and record
  /// anything the sink will need into `labels`.  Must be a pure function
  /// of its arguments — shared state would break the determinism
  /// guarantee (and the thread-safety) of the engine.
  using setup_fn = std::function<void(std::size_t index, util::xoshiro256&,
                                      sim::backend&,
                                      std::vector<double>& labels)>;

  /// Invoked once per record, in strict index order, on the thread that
  /// called run().
  using sink_fn = std::function<void(acquisition_record&&)>;

  /// `second_core`, when given, is the simulated interfering core (the
  /// Figure-4 dual-core environment) attached to every worker's
  /// synthesizer; it is shared read-only and only its window phase is
  /// drawn per trial, from the trial's synthesis stream.
  acquisition_campaign(
      sim::program_image image, acquisition_config config,
      std::shared_ptr<const power::second_core_noise> second_core = nullptr);

  void set_setup(setup_fn setup);

  /// This campaign restricted to [first_index, first_index + traces):
  /// same image, setup and interferer, so by the prefix property its
  /// records equal the full campaign's at those indices.
  acquisition_campaign slice(std::size_t first_index,
                             std::size_t traces) const;

  /// Acquires all records and streams them into `sink`.  Worker and sink
  /// exceptions abort the campaign and rethrow here.
  void run(const sink_fn& sink);

  /// Streams the campaign through the batched analysis architecture:
  /// records are packed into SoA tiles (labels and samples of the
  /// acquisition_record) and pumped through the pass — begin() at the
  /// first tile, consume_batch() per tile, finish() at the end.
  void run(analysis_pass& pass);

  /// Produces record `index` synchronously as a group of one on a fresh
  /// 1-lane core; run() yields exactly this record for every index.
  acquisition_record produce(std::size_t index) const;

  unsigned resolved_threads() const noexcept;

  const acquisition_config& config() const noexcept { return config_; }

  /// Per-trial seed derivation (exposed so tests can pin the scheme; the
  /// scheme is load-bearing for reproducibility of archived results).
  static std::uint64_t trace_seed(std::uint64_t campaign_seed,
                                  std::size_t index) noexcept;

private:
  /// Builds `core` with `lanes` lanes (the one factory, recording set up
  /// for this campaign's window) on first use, resets it afterwards, and
  /// limits it to `count` active lanes.
  void ready_core(std::unique_ptr<sim::batch_backend>& core,
                  std::size_t lanes, std::size_t count) const;
  power::trace_synthesizer make_synthesizer() const;
  /// The one producer: the setup callback runs against each lane through
  /// a sim::batch_lane_view, the whole group simulates in one run of the
  /// ready `core`, and each ejected lane is redone as a group of one on
  /// `single` (a 1-lane core, built on first use).  recs[i] is
  /// bit-identical to produce(first_index + i).
  void produce_group(sim::batch_backend& core,
                     std::unique_ptr<sim::batch_backend>& single,
                     power::trace_synthesizer& synth, std::size_t first_index,
                     std::span<acquisition_record> recs) const;
  /// Fills rec.samples (and rec.window_activity below
  /// keep_activity_first) from a finished run's activity over the
  /// record's window.
  void synthesize_into(const sim::activity_trace& activity,
                       power::trace_synthesizer& synth,
                       std::uint64_t synthesis_seed,
                       acquisition_record& rec) const;

  /// Lane count run() batches with: 0 runs per-trace (batching disabled
  /// via config/env, or the OoO reference scheduler, which has no batched
  /// form), otherwise the resolved width clamped to the trace count.
  std::size_t batch_lanes() const;

  sim::program_image image_;
  acquisition_config config_;
  std::shared_ptr<const power::second_core_noise> second_core_;
  setup_fn setup_;
};

/// Presents an acquisition campaign as a batched trace_source, so the
/// same analysis passes run on live simulation and on archived stores
/// (core::archive_source) without caring which.  The in-order record
/// deliveries are packed into a reused SoA tile per batch; the campaign
/// must outlive the source, and each for_each_batch() call runs the
/// campaign once.
class acquisition_source final : public trace_source {
public:
  explicit acquisition_source(acquisition_campaign& campaign)
      : campaign_(campaign) {}

  std::size_t traces() const override {
    return campaign_.config().traces;
  }

  void for_each_batch(std::size_t max_batch, const batch_fn& fn) override;

private:
  acquisition_campaign& campaign_;
};

} // namespace usca::core

#endif // USCA_CORE_ACQUISITION_H
