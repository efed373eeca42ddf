// Shared definitions of the repository benchmark (see ../README.md).
//
// The benchmark drives the usca library only through its public calls.
// workloads.cpp defines the four workloads and their timed, untraced run;
// ledger.cpp holds the traced run that attributes a trace's host time to
// the library's layers.
#ifndef USCA_PERFBENCH_BENCH_H
#define USCA_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/acquisition.h"
#include "core/analysis_sinks.h"
#include "core/campaign.h"
#include "crypto/aes_codegen.h"
#include "stats/cpa.h"
#include "stats/ttest.h"

namespace perfbench {

using namespace usca;

enum class workload { cpa_inorder, cpa_ooo_batched, spec_ooo_tvla, archive_attack };

std::optional<workload> parse_workload(std::string_view name);
const char* workload_name(workload wl);

/// Deliberate faults for the benchmark's own negative tests.
enum class fault { none, wrong_key, corrupt_shard };

struct options {
  workload wl = workload::cpa_inorder;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t traces = 0; ///< 0 = the workload's fixed trace count
  fault inject = fault::none;
  std::string work_dir;   ///< private per-run directory for stores
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports: traces attempted and failed, the
/// reasons for any failure, and the metrics.
struct outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<metric> metrics;

  /// Counts `traces` as failed (capped by the caller at what was
  /// attempted) and records why.
  void fail(std::uint64_t traces, std::string why) {
    failed += traces;
    problems.push_back(std::move(why));
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Campaign workers; the calling thread runs the analysis passes, so at
/// most three threads are busy on a four-core host.
inline constexpr unsigned campaign_workers = 2;
/// Timed runs produce every trace on the calling thread.  On a shared
/// host a worker whose core is busy with someone else stalls in-order
/// delivery for every other thread, so runs with workers time the host's
/// scheduler as much as the program.  The traced run still measures the
/// two-worker campaign.
inline constexpr unsigned timed_workers = 1;
inline constexpr int campaign_averaging = 16;
/// Samples kept per speculating record: the branchy victim's round-1
/// window length depends on the data (263-301 samples over 4000 traces),
/// so every record is cut to this fixed prefix.
inline constexpr std::size_t spec_prefix_samples = 240;
/// Shards of the archive_attack fixture.
inline constexpr std::size_t archive_shards = 4;

/// Everything a workload's campaigns, replicas and checks are built from.
/// Inputs derive from the --seed alone.
struct workload_spec {
  workload wl = workload::cpa_inorder;
  std::size_t traces = 0;
  std::uint64_t campaign_seed = 0;
  crypto::aes_key key{};
  sim::backend_kind backend = sim::backend_kind::inorder;
  sim::micro_arch_config uarch;
  /// Speculating workload: branchy AES through acquisition_campaign with
  /// fixed-vs-random plaintexts keyed on index parity.
  bool spec = false;
  bool cpa = true;       ///< 16 per-byte CPA passes, key recovery check
  bool tvla = false;     ///< TVLA pass
  bool archive = false;  ///< cpa_inorder writes a store beside the CPA
};

/// Campaign configuration of a trace_campaign workload.
core::campaign_config campaign_config_of(const workload_spec& spec,
                                         unsigned workers,
                                         std::size_t first_index,
                                         std::size_t traces);

/// The speculating workload's per-trace setup (fixed-vs-random on index
/// parity); the random draw happens for both classes so they share one
/// stream position.
void spec_setup(const crypto::aes_program_layout& layout,
                const crypto::aes_round_keys& rk, std::size_t index,
                util::xoshiro256& rng, mem::memory& memory,
                std::vector<double>& labels);

/// One campaign of a live workload: construct it (program generation
/// included), then stream it as a trace_source.
class live_campaign {
public:
  live_campaign(const workload_spec& spec, unsigned workers);
  /// The acquisition campaign's setup callback holds `this`.
  live_campaign(const live_campaign&) = delete;
  live_campaign& operator=(const live_campaign&) = delete;
  core::trace_source& source() { return *source_; }
  /// Per-trace reference record of `index`: labels, then samples (cut to
  /// the workload's prefix).
  void produce(std::size_t index, std::vector<double>& labels,
               std::vector<double>& samples) const;

private:
  std::unique_ptr<core::trace_campaign> aes_;
  crypto::aes_program_layout layout_;
  crypto::aes_round_keys rk_{};
  std::unique_ptr<core::acquisition_campaign> acq_;
  std::unique_ptr<core::trace_source> source_;
};

/// The workload's analysis passes for one campaign: 16 per-byte CPA
/// sinks, a TVLA sink and/or a store sink.
struct analysis_set {
  std::vector<std::unique_ptr<core::cpa_sink>> cpa;
  std::unique_ptr<core::tvla_sink> tvla;
  std::unique_ptr<core::store_sink> store;

  /// `store_path` empty = no store sink.
  analysis_set(const workload_spec& spec, const std::string& store_path);
  std::vector<core::analysis_pass*> passes();
};

/// Solved verdicts of an analysis_set.
struct verdict {
  std::vector<stats::cpa_result> cpa; ///< per key byte
  std::vector<double> tvla_abs_t;
  double tvla_max_t = 0.0;
};

/// Subbytes Hamming-weight model of the CPA solves.
double subbytes_hw_model(std::size_t guess, std::size_t pt_byte);

/// Solves the CPA passes (ranks for all 16 key bytes) and the TVLA pass.
verdict solve(const analysis_set& set);

/// Records the rows of a few sampled indices and counts delivered rows,
/// for the output checks, and when each batch arrived, for the timing.
class capture_pass final : public core::analysis_pass {
public:
  explicit capture_pass(std::vector<std::size_t> indices);
  void consume_batch(const core::trace_batch_view& batch) override;
  std::size_t rows() const { return rows_; }
  const std::vector<std::size_t>& indices() const { return indices_; }
  /// Row of indices()[k]: labels then samples; empty if never delivered.
  const std::vector<double>& row(std::size_t k) const { return captured_[k]; }
  /// Arrival time of each delivered batch, in delivery order.
  const std::vector<std::chrono::steady_clock::time_point>& arrivals() const {
    return arrivals_;
  }

private:
  std::vector<std::size_t> indices_;
  std::vector<std::vector<double>> captured_;
  std::size_t rows_ = 0;
  std::vector<std::chrono::steady_clock::time_point> arrivals_;
};

/// Order-sensitive 64-bit digest of one record's labels and samples
/// (bit patterns, so a digest match is a byte-identity match).
std::uint64_t record_digest(std::span<const double> labels,
                            std::span<const double> samples);

/// Descriptor of the workload's stores (campaign archive and shards).
power::trace_store_descriptor store_descriptor(const workload_spec& spec,
                                               std::size_t first_index);

/// One repetition: from the first trace to the last solve.
struct repetition {
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point pumped; ///< last batch consumed
  double seconds = 0.0;
  double solve_seconds = 0.0; ///< the part spent solving
  verdict v;
  std::size_t merged = 0; ///< archive_attack: records merge_stores wrote
  std::size_t opened = 0; ///< archive_attack: records the strict open saw
};

/// Set-up is about a millisecond, so each repetition times it several
/// times.
inline constexpr int setups_per_repetition = 5;
/// The reported set-up time is this percentile of a run's set-ups: like
/// the repetitions' segments, a set-up is only ever slowed by the host.
inline constexpr double setup_percentile = 10.0;
/// Untimed, checked repetitions before timing starts.
inline constexpr double warmup_seconds = 1.0;

/// A workload ready to run: its spec, expected key, output-check indices,
/// store paths, and (archive_attack) the fixture with its live verdict.
struct workload_state {
  explicit workload_state(const options& opt);

  /// Times one set-up: program generation, campaign construction and a
  /// warm-up produce(0) (kept as the per-trace reference); archive_attack
  /// times a strict open of the first shard.
  double set_up(unsigned workers);

  /// Runs one repetition of `campaign` (nullptr = merge + replay the
  /// fixture) into `passes`, then solves `set`.
  repetition run(live_campaign* campaign, analysis_set& set,
                 std::span<core::analysis_pass* const> passes);

  /// The campaign a repetition streams (the latest set-up's), or nullptr
  /// for archive_attack, which replays the fixture.
  live_campaign* live_source() const {
    return spec.wl == workload::archive_attack ? nullptr : reference.get();
  }

  /// Output checks of one repetition; returns its failed traces.
  std::uint64_t check(const analysis_set& set, const capture_pass& capture,
                      const repetition& rep, outcome& out) const;

  workload_spec spec;
  crypto::aes_key expected{};
  std::vector<std::size_t> indices;
  std::string store_path; ///< cpa_inorder's archive, else empty
  std::string merged_path;
  std::vector<std::string> shards;
  std::optional<verdict> live; ///< archive_attack: verdict at write time
  std::unique_ptr<live_campaign> reference;
};

/// Untraced, timed run of a workload (end-to-end metrics).
outcome run_timed(const options& opt);
/// Traced run (per-layer ledger).
outcome run_traced(const options& opt);

/// Bit-identity of two verdicts (archive replay vs live).
bool same_verdict(const verdict& a, const verdict& b);

using clock = std::chrono::steady_clock;
inline double seconds_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(seconds));
}

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

} // namespace perfbench

#endif // USCA_PERFBENCH_BENCH_H
