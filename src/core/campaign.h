// The AES trace campaign: the paper's Figure-3/4 attack acquisitions.
//
// A trace campaign draws a plaintext per trace, runs the generated AES
// on the core model, and renders a power trace of a marker-delimited
// window.  It is a setup over the generic acquisition engine
// (core/acquisition.h), not an engine of its own: the setup installs
// the key schedule and the trace's plaintext (drawn by the plaintext
// policy from the trace's private setup stream) and records the 16
// plaintext bytes as the record's labels, and the optional simulated
// second core rides along as the engine's interferer.  Batching,
// fallback, seeding, threading and in-order delivery — and with them the
// determinism guarantee and the prefix property — are the engine's.
#ifndef USCA_CORE_CAMPAIGN_H
#define USCA_CORE_CAMPAIGN_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/acquisition.h"
#include "core/trace_stream.h"
#include "crypto/aes_codegen.h"
#include "power/second_core.h"
#include "sim/micro_arch_config.h"
#include "sim/program_image.h"
#include "util/rng.h"

namespace usca::core {

struct campaign_config {
  std::size_t traces = 0;       ///< number of traces to acquire
  std::size_t first_index = 0;  ///< global index of the first trace
  unsigned threads = 0;         ///< worker count; 0 = hardware concurrency
  std::uint64_t seed = 0;       ///< campaign master seed
  int averaging = 16;           ///< executions averaged per acquisition
  campaign_window window{};
  power::synthesis_config power{};
  sim::micro_arch_config uarch = sim::cortex_a7();
  /// Core model the campaign simulates on (in-order pipeline or the OoO
  /// backend); every worker owns one resettable instance of this kind.
  sim::backend_kind backend = sim::backend_kind::inorder;
  /// Batched-simulation width, same semantics as
  /// acquisition_config::sim_batch_lanes (USCA_SIM_BATCH overrides).
  /// Batching never changes results: traces, marks and downstream
  /// statistics are bit-identical at every lane count, pinned by
  /// tests/core/campaign_sim_batch_test.cpp.
  int sim_batch_lanes = -1;
  /// Attach the simulated interfering core (the Figure-4 dual-core
  /// environment); it is built once and shared read-only by all workers.
  bool simulated_second_core = false;
  std::size_t second_core_cycles = 8 * 1024;
};

/// One completed acquisition, delivered to the sink in index order.
struct trace_record {
  std::size_t index = 0;            ///< global trace index
  crypto::aes_block plaintext{};
  power::trace samples;             ///< one sample per window cycle
  std::uint64_t window_begin = 0;   ///< absolute cycle of samples[0]
  std::uint64_t window_end = 0;
  std::uint64_t cycles = 0;         ///< total simulated cycles of the run
  /// All trigger marks of the run (phase annotation, e.g. Figure 3).
  std::vector<sim::mark_stamp> marks;
};

class trace_campaign {
public:
  /// Plaintext policy: derives the plaintext of trace `index` from its
  /// private, index-seeded random stream.  Must be a pure function of its
  /// arguments — any other state would break the determinism guarantee.
  using plaintext_fn =
      std::function<crypto::aes_block(std::size_t index, util::xoshiro256&)>;

  /// Sink: invoked once per trace, in strict index order, on the thread
  /// that called run().
  using sink_fn = std::function<void(trace_record&&)>;

  trace_campaign(campaign_config config, crypto::aes_key key);

  /// Replaces the default uniform-random plaintext policy (e.g. the TVLA
  /// fixed-vs-random split keyed on index parity).
  void set_plaintext_policy(plaintext_fn policy);

  /// Acquires all traces and streams them into `sink`.  Worker exceptions
  /// and sink exceptions abort the campaign and rethrow here.
  void run(const sink_fn& sink);

  /// Streams the campaign through the batched analysis architecture.
  /// Each record's labels are the 16 plaintext bytes (as doubles), so an
  /// archived AES campaign supports per-byte CPA for every key byte and
  /// index-parity TVLA on replay.
  void run(analysis_pass& pass);

  /// Produces trace `index` of the campaign synchronously; run() yields
  /// exactly this record for every index (the determinism contract is
  /// checked against it in the tests).
  trace_record produce(std::size_t index) const;

  /// Worker count run() will use after resolving 0 = hardware concurrency.
  unsigned resolved_threads() const noexcept;

  const campaign_config& config() const noexcept { return config_; }
  const crypto::aes_key& key() const noexcept { return key_; }
  const crypto::aes_program_layout& layout() const noexcept {
    return layout_;
  }

  /// Per-trace seed derivation: the engine's
  /// (acquisition_campaign::trace_seed).
  static std::uint64_t trace_seed(std::uint64_t campaign_seed,
                                  std::size_t index) noexcept {
    return acquisition_campaign::trace_seed(campaign_seed, index);
  }

  /// The generic campaign this AES front runs on: the translated config,
  /// the AES setup (current plaintext policy, input installs, plaintext
  /// labels) and the second-core interferer.  The setup refers to *this,
  /// so this campaign must outlive the returned one.
  acquisition_campaign engine() const;

private:
  campaign_config config_;
  crypto::aes_key key_;
  crypto::aes_program_layout layout_;
  crypto::aes_round_keys round_keys_;
  /// Shared read-only image of layout_.prog: every core of the campaign
  /// aliases this one copy.
  sim::program_image image_;
  std::shared_ptr<const power::second_core_noise> second_core_;
  plaintext_fn plaintext_;
};

/// Presents an AES trace campaign as a batched trace_source (labels =
/// the 16 plaintext bytes) — the engine's acquisition_source over
/// campaign.engine().  The campaign must outlive the source; each
/// for_each_batch() call runs the campaign once.
class aes_campaign_source final : public trace_source {
public:
  explicit aes_campaign_source(trace_campaign& campaign)
      : campaign_(campaign) {}

  std::size_t traces() const override {
    return campaign_.config().traces;
  }

  void for_each_batch(std::size_t max_batch, const batch_fn& fn) override;

private:
  trace_campaign& campaign_;
};

} // namespace usca::core

#endif // USCA_CORE_CAMPAIGN_H
