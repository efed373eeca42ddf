// The four benchmark workloads and their timed, untraced run.
//
//   cpa_inorder      Fig. 3 setting: constant-time AES on cortex_a7(),
//                    batched, 16 per-byte CPA passes plus a store archive.
//   cpa_ooo_batched  the same victim and CPA on cortex_a7_ooo() through
//                    the batched OoO core, no archive.
//   spec_ooo_tvla    branchy AES on a bimodal speculating OoO core,
//                    fixed-vs-random TVLA on index parity.
//   archive_attack   no simulation: merge four shard stores, open the
//                    merged store strictly, replay it into 16 CPA passes
//                    and a TVLA pass.
//
// Each campaign is a closed loop (the engine claims a trace group only
// when a worker is free).  The timed run produces on the calling thread,
// which also runs the analysis passes; the traced run adds two workers.
// One timed repetition runs from the first trace to the last solve; a run
// repeats it for --seconds and reports the sum of each segment's fastest
// showing (floor_seconds).
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "core/campaign_fabric.h"
#include "core/trace_archive.h"
#include "power/trace_store_reader.h"
#include "sim/ooo/speculation.h"
#include "util/bitops.h"
#include "util/error.h"

namespace perfbench {

namespace {

constexpr const char* workload_names[] = {"cpa_inorder", "cpa_ooo_batched",
                                          "spec_ooo_tvla", "archive_attack"};

/// Fixed trace count of each workload: enough for 16/16 key bytes (CPA)
/// or a clear TVLA leak at averaging 16, and 0.4-1.3 s per timed
/// repetition on a 4-core host.
std::size_t default_traces(workload wl) {
  return wl == workload::archive_attack ? 8000 : 3000;
}

/// Presents the speculating acquisition campaign as a trace source whose
/// records are cut to spec_prefix_samples (their windows differ in length).
class prefix_source final : public core::trace_source {
public:
  explicit prefix_source(core::acquisition_campaign& campaign)
      : campaign_(campaign) {}

  std::size_t traces() const override { return campaign_.config().traces; }

  void for_each_batch(std::size_t max_batch, const batch_fn& fn) override {
    core::batch_builder builder(max_batch == 0 ? default_batch_traces
                                               : max_batch);
    campaign_.run([&](core::acquisition_record&& rec) {
      if (rec.samples.size() < spec_prefix_samples) {
        throw util::analysis_error(
            "trace " + std::to_string(rec.index) + " has " +
            std::to_string(rec.samples.size()) +
            " samples, fewer than the fixed prefix");
      }
      builder.push(rec.index, rec.labels,
                   std::span<const double>(rec.samples)
                       .first(spec_prefix_samples),
                   fn);
    });
    builder.flush(fn);
  }

private:
  core::acquisition_campaign& campaign_;
};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6; // KiB on Linux
}

/// Flips one payload byte in the middle of `path` (negative test).
void corrupt_one_byte(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const std::streamoff middle = f.tellg() / 2;
  char byte = 0;
  f.seekg(middle);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(middle);
  f.write(&byte, 1);
  if (!f) {
    throw std::runtime_error("cannot corrupt " + path);
  }
}

workload_spec make_spec(const options& opt) {
  workload_spec spec;
  spec.wl = opt.wl;
  spec.traces = opt.traces != 0 ? opt.traces : default_traces(opt.wl);
  std::uint64_t state = opt.seed;
  spec.campaign_seed = util::splitmix64(state);
  for (std::size_t i = 0; i < spec.key.size(); i += 8) {
    const std::uint64_t word = util::splitmix64(state);
    for (std::size_t b = 0; b < 8; ++b) {
      spec.key[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  switch (opt.wl) {
  case workload::cpa_inorder:
    spec.uarch = sim::cortex_a7();
    spec.archive = true;
    break;
  case workload::cpa_ooo_batched:
    spec.backend = sim::backend_kind::ooo;
    spec.uarch = sim::cortex_a7_ooo();
    break;
  case workload::spec_ooo_tvla:
    spec.backend = sim::backend_kind::ooo;
    spec.uarch = sim::cortex_a7_ooo_spec(
        sim::speculation_config{.predictor = sim::predictor_kind::bimodal});
    spec.spec = true;
    spec.cpa = false;
    spec.tvla = true;
    // The branchy victim's cost depends on the key: half the traces run
    // the fixed plaintext under it, so a key drawn from the seed would
    // change the work per run by up to 20%.  The key is fixed (FIPS-197
    // Appendix B); the seed drives the random plaintexts and the noise.
    spec.key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    break;
  case workload::archive_attack:
    spec.uarch = sim::cortex_a7();
    spec.tvla = true;
    break;
  }
  return spec;
}

core::acquisition_config acquisition_config_of(const workload_spec& spec,
                                               unsigned workers) {
  core::acquisition_config config;
  config.traces = spec.traces;
  config.threads = workers;
  config.seed = spec.campaign_seed;
  config.averaging = campaign_averaging;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  config.uarch = spec.uarch;
  config.backend = spec.backend;
  return config;
}

crypto::aes_block spec_fixed_plaintext() {
  return {0xda, 0x39, 0xa3, 0xee, 0x5e, 0x6b, 0x4b, 0x0d,
          0x32, 0x55, 0xbf, 0xef, 0x95, 0x60, 0x18, 0x90};
}

/// Indices whose records are compared with the per-trace reference path:
/// the first, the last and six drawn from the seed.
std::vector<std::size_t> sample_indices(const workload_spec& spec) {
  std::vector<std::size_t> out{0, spec.traces - 1};
  std::uint64_t state = spec.campaign_seed ^ 0x5a3b1e;
  while (out.size() < 8 && out.size() < spec.traces) {
    const std::size_t i = util::splitmix64(state) % spec.traces;
    if (std::find(out.begin(), out.end(), i) == out.end()) {
      out.push_back(i);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string shard_path(const options& opt, std::size_t shard) {
  return opt.work_dir + "/shard" + std::to_string(shard) + ".trc";
}

/// Output checks; each returns the traces that fail.
std::uint64_t check_samples(const workload_spec& spec,
                            const live_campaign& reference,
                            const capture_pass& capture, outcome& out) {
  std::uint64_t failed = 0;
  std::vector<double> labels;
  std::vector<double> samples;
  for (std::size_t k = 0; k < capture.indices().size(); ++k) {
    const std::size_t index = capture.indices()[k];
    reference.produce(index, labels, samples);
    const std::vector<double>& row = capture.row(k);
    const bool same =
        row.size() == labels.size() + samples.size() &&
        same_bits(std::span<const double>(row).first(labels.size()),
                  labels) &&
        same_bits(std::span<const double>(row).subspan(labels.size()),
                  samples);
    if (!same) {
      ++failed;
      out.problems.push_back(std::string(workload_name(spec.wl)) +
                             ": trace " + std::to_string(index) +
                             " differs from the per-trace reference");
    }
  }
  return failed;
}

std::uint64_t check_verdict(const workload_spec& spec, const verdict& v,
                            const crypto::aes_key& expected, outcome& out) {
  bool ok = true;
  for (std::size_t b = 0; b < v.cpa.size(); ++b) {
    const std::size_t rank = v.cpa[b].rank_of(expected[b]);
    if (rank != 0) {
      ok = false;
      out.problems.push_back("key byte " + std::to_string(b) +
                             " not recovered (rank " + std::to_string(rank) +
                             ")");
    }
  }
  if (spec.spec && !(v.tvla_max_t > 4.5)) {
    ok = false;
    out.problems.push_back("TVLA reports no leak (max |t| = " +
                           std::to_string(v.tvla_max_t) + ")");
  }
  return ok ? 0 : spec.traces;
}

/// Writes the archive_attack fixture, untimed: the workload's campaign
/// archived as archive_shards shard stores, with the live CPA/TVLA
/// verdict computed while writing.
verdict write_archive_fixture(const options& opt, const workload_spec& spec) {
  analysis_set live(spec, "");
  for (std::size_t s = 0; s < archive_shards; ++s) {
    const std::size_t first = spec.traces * s / archive_shards;
    const std::size_t last = spec.traces * (s + 1) / archive_shards;
    core::trace_campaign shard(
        campaign_config_of(spec, campaign_workers, first, last - first),
        spec.key);
    core::aes_campaign_source source(shard);
    core::store_sink store(shard_path(opt, s), store_descriptor(spec, first));
    std::vector<core::analysis_pass*> passes = live.passes();
    passes.push_back(&store);
    core::pump(source, passes);
  }
  return solve(live);
}

} // namespace

std::optional<workload> parse_workload(std::string_view name) {
  for (std::size_t i = 0; i < std::size(workload_names); ++i) {
    if (name == workload_names[i]) {
      return static_cast<workload>(i);
    }
  }
  return std::nullopt;
}

const char* workload_name(workload wl) {
  return workload_names[static_cast<std::size_t>(wl)];
}

core::campaign_config campaign_config_of(const workload_spec& spec,
                                         unsigned workers,
                                         std::size_t first_index,
                                         std::size_t traces) {
  core::campaign_config config;
  config.traces = traces;
  config.first_index = first_index;
  config.threads = workers;
  config.seed = spec.campaign_seed;
  config.averaging = campaign_averaging;
  config.window = {crypto::mark_encrypt_begin, crypto::mark_round1_end};
  config.uarch = spec.uarch;
  config.backend = spec.backend;
  return config;
}

void spec_setup(const crypto::aes_program_layout& layout,
                const crypto::aes_round_keys& rk, std::size_t index,
                util::xoshiro256& rng, mem::memory& memory,
                std::vector<double>& labels) {
  crypto::aes_block pt;
  for (auto& b : pt) {
    b = rng.next_u8();
  }
  if (index % 2 == 0) {
    pt = spec_fixed_plaintext();
  }
  crypto::install_aes_inputs(memory, layout, rk, pt);
  labels.resize(pt.size());
  for (std::size_t b = 0; b < pt.size(); ++b) {
    labels[b] = static_cast<double>(pt[b]);
  }
}

live_campaign::live_campaign(const workload_spec& spec, unsigned workers) {
  if (!spec.spec) {
    aes_ = std::make_unique<core::trace_campaign>(
        campaign_config_of(spec, workers, 0, spec.traces), spec.key);
    source_ = std::make_unique<core::aes_campaign_source>(*aes_);
    return;
  }
  layout_ = crypto::generate_aes128_branchy_program();
  rk_ = crypto::expand_key(spec.key);
  acq_ = std::make_unique<core::acquisition_campaign>(
      sim::program_image(layout_.prog), acquisition_config_of(spec, workers));
  acq_->set_setup([this](std::size_t index, util::xoshiro256& rng,
                         sim::backend& core, std::vector<double>& labels) {
    spec_setup(layout_, rk_, index, rng, core.memory(), labels);
  });
  source_ = std::make_unique<prefix_source>(*acq_);
}

void live_campaign::produce(std::size_t index, std::vector<double>& labels,
                            std::vector<double>& samples) const {
  if (aes_) {
    const core::trace_record rec = aes_->produce(index);
    labels.assign(rec.plaintext.begin(), rec.plaintext.end());
    samples.assign(rec.samples.begin(), rec.samples.end());
    return;
  }
  const core::acquisition_record rec = acq_->produce(index);
  labels = rec.labels;
  samples.assign(rec.samples.begin(),
                 rec.samples.begin() +
                     static_cast<std::ptrdiff_t>(std::min(
                         rec.samples.size(), spec_prefix_samples)));
}

analysis_set::analysis_set(const workload_spec& spec,
                           const std::string& store_path) {
  if (spec.cpa) {
    for (std::size_t b = 0; b < 16; ++b) {
      cpa.push_back(std::make_unique<core::cpa_sink>(b));
    }
  }
  if (spec.tvla) {
    tvla = std::make_unique<core::tvla_sink>();
  }
  if (!store_path.empty()) {
    store = std::make_unique<core::store_sink>(store_path,
                                               store_descriptor(spec, 0));
  }
}

std::vector<core::analysis_pass*> analysis_set::passes() {
  std::vector<core::analysis_pass*> out;
  for (auto& c : cpa) {
    out.push_back(c.get());
  }
  if (tvla) {
    out.push_back(tvla.get());
  }
  if (store) {
    out.push_back(store.get());
  }
  return out;
}

double subbytes_hw_model(std::size_t guess, std::size_t pt_byte) {
  return static_cast<double>(util::hamming_weight(crypto::subbytes_hypothesis(
      static_cast<std::uint8_t>(pt_byte), static_cast<std::uint8_t>(guess))));
}

verdict solve(const analysis_set& set) {
  verdict v;
  for (const auto& c : set.cpa) {
    v.cpa.push_back(c->cpa().solve(subbytes_hw_model, 256));
  }
  if (set.tvla) {
    v.tvla_abs_t = set.tvla->tvla().abs_t();
    v.tvla_max_t = set.tvla->tvla().max_abs_t();
  }
  return v;
}

capture_pass::capture_pass(std::vector<std::size_t> indices)
    : indices_(std::move(indices)), captured_(indices_.size()) {}

void capture_pass::consume_batch(const core::trace_batch_view& batch) {
  arrivals_.push_back(clock::now());
  rows_ += batch.count;
  for (std::size_t k = 0; k < indices_.size(); ++k) {
    const std::size_t i = indices_[k];
    if (i < batch.first_index || i >= batch.first_index + batch.count) {
      continue;
    }
    const std::size_t r = i - batch.first_index;
    std::vector<double>& row = captured_[k];
    row.assign(batch.labels_row(r).begin(), batch.labels_row(r).end());
    row.insert(row.end(), batch.samples_row(r).begin(),
               batch.samples_row(r).end());
  }
}

std::uint64_t record_digest(std::span<const double> labels,
                            std::span<const double> samples) {
  std::uint64_t h = 0x243f6a8885a308d3ULL ^ (labels.size() << 32) ^
                    samples.size();
  const auto mix = [&h](double x) {
    h ^= std::bit_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL;
    h = std::rotl(h, 29) * 0xbf58476d1ce4e5b9ULL;
  };
  for (const double x : labels) {
    mix(x);
  }
  for (const double x : samples) {
    mix(x);
  }
  return h;
}

bool same_verdict(const verdict& a, const verdict& b) {
  if (a.cpa.size() != b.cpa.size() || !same_bits(a.tvla_abs_t, b.tvla_abs_t)) {
    return false;
  }
  for (std::size_t i = 0; i < a.cpa.size(); ++i) {
    if (a.cpa[i].corr.size() != b.cpa[i].corr.size()) {
      return false;
    }
    for (std::size_t g = 0; g < a.cpa[i].corr.size(); ++g) {
      if (!same_bits(a.cpa[i].corr[g], b.cpa[i].corr[g])) {
        return false;
      }
    }
  }
  return true;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

power::trace_store_descriptor store_descriptor(const workload_spec& spec,
                                               std::size_t first_index) {
  power::trace_store_descriptor desc;
  desc.seed = spec.campaign_seed;
  desc.config_hash = core::aes_campaign_config_hash(
      campaign_config_of(spec, campaign_workers, 0, spec.traces), spec.key);
  desc.first_index = first_index;
  return desc;
}

workload_state::workload_state(const options& opt)
    : spec(make_spec(opt)), expected(spec.key),
      indices(sample_indices(spec)) {
  if (opt.inject == fault::wrong_key) {
    expected[0] ^= 0x01;
  }
  if (spec.archive) {
    store_path = opt.work_dir + "/campaign.trc";
  }
  merged_path = opt.work_dir + "/merged.trc";
  for (std::size_t s = 0; s < archive_shards; ++s) {
    shards.push_back(shard_path(opt, s));
  }
  if (spec.wl == workload::archive_attack) {
    live = write_archive_fixture(opt, spec);
    if (opt.inject == fault::corrupt_shard) {
      corrupt_one_byte(shards[1]);
    }
    // The per-trace reference of the archived records.
    workload_spec live_spec = spec;
    live_spec.wl = workload::cpa_inorder;
    reference = std::make_unique<live_campaign>(live_spec, campaign_workers);
  }
}

double workload_state::set_up(unsigned workers) {
  const clock::time_point t0 = clock::now();
  if (spec.wl == workload::archive_attack) {
    const power::trace_store_reader reader(shards[0]);
    (void)reader.traces();
  } else {
    reference = std::make_unique<live_campaign>(spec, workers);
    std::vector<double> labels;
    std::vector<double> samples;
    reference->produce(0, labels, samples);
  }
  return seconds_between(t0, clock::now());
}

repetition workload_state::run(live_campaign* campaign, analysis_set& set,
                               std::span<core::analysis_pass* const> passes) {
  repetition rep;
  const clock::time_point t0 = clock::now();
  rep.start = t0;
  if (campaign != nullptr) {
    core::pump(campaign->source(), passes);
  } else {
    rep.merged = core::merge_stores(shards, merged_path);
    const power::trace_store_reader reader(merged_path);
    rep.opened = reader.traces();
    core::archive_source source(reader);
    core::pump(source, passes);
  }
  const clock::time_point t1 = clock::now();
  rep.pumped = t1;
  rep.v = solve(set);
  const clock::time_point t2 = clock::now();
  rep.seconds = seconds_between(t0, t2);
  rep.solve_seconds = seconds_between(t1, t2);
  return rep;
}

std::uint64_t workload_state::check(const analysis_set& set,
                                    const capture_pass& capture,
                                    const repetition& rep, outcome& out) const {
  const std::size_t n = spec.traces;
  std::uint64_t failed = 0;
  if (capture.rows() != n) {
    failed += n - std::min(capture.rows(), n);
    out.problems.push_back("delivered " + std::to_string(capture.rows()) +
                           " of " + std::to_string(n) + " traces");
  }
  if (live && (rep.merged != n || rep.opened != n)) {
    failed += n;
    out.problems.push_back("merged store holds " + std::to_string(rep.opened) +
                           " records (merge reported " +
                           std::to_string(rep.merged) + ")");
  }
  if (set.store && set.store->records() != n) {
    failed += n;
    out.problems.push_back("archive holds " +
                           std::to_string(set.store->records()) + " records");
  }
  failed += check_samples(spec, *reference, capture, out);
  failed += check_verdict(spec, rep.v, expected, out);
  if (live && !same_verdict(*live, rep.v)) {
    failed += n;
    out.problems.push_back(
        "replayed CPA/TVLA differ from the live accumulators");
  }
  return std::min<std::uint64_t>(failed, n);
}

namespace {

/// Splits a repetition at its batch arrivals: the time to the first
/// batch, between batches, from the last batch to the end of the pump,
/// and the solve.  The segments add up to the repetition's time.
std::vector<double> segments_of(const repetition& rep,
                                const capture_pass& capture) {
  std::vector<double> segments;
  clock::time_point last = rep.start;
  for (const clock::time_point t : capture.arrivals()) {
    segments.push_back(seconds_between(last, t));
    last = t;
  }
  segments.push_back(seconds_between(last, rep.pumped));
  segments.push_back(rep.solve_seconds);
  return segments;
}

/// The repetition's time with the host's interference taken out: every
/// repetition does the same work and is cut at the same batches, and the
/// host only ever adds time, so each segment's fastest showing over the
/// repetitions is its own cost.  Returns 0 if the cuts moved.
double floor_seconds(const std::vector<std::vector<double>>& segments) {
  double total = 0.0;
  for (std::size_t k = 0; !segments.empty() && k < segments[0].size(); ++k) {
    double fastest = segments[0][k];
    for (const std::vector<double>& rep : segments) {
      if (rep.size() != segments[0].size()) {
        return 0.0;
      }
      fastest = std::min(fastest, rep[k]);
    }
    total += fastest;
  }
  return total;
}

} // namespace

outcome run_timed(const options& opt) {
  outcome out;
  workload_state state(opt);
  const workload_spec& spec = state.spec;

  // One checked repetition: set-up (timed on its own, several times),
  // then the campaign from the first trace to the last solve, split into
  // segments at the batch arrivals.  Returns false when the campaign
  // threw.
  std::vector<double> setup_times;
  std::vector<double> segments;
  const auto repeat = [&](repetition& rep) {
    for (int s = 0; s < setups_per_repetition; ++s) {
      setup_times.push_back(state.set_up(timed_workers));
    }
    analysis_set set(spec, state.store_path);
    capture_pass capture(state.indices);
    std::vector<core::analysis_pass*> passes = set.passes();
    passes.push_back(&capture);
    out.attempted += spec.traces;
    try {
      rep = state.run(state.live_source(), set, passes);
    } catch (const std::exception& e) {
      out.fail(spec.traces, std::string("campaign threw: ") + e.what());
      return false;
    }
    out.failed += state.check(set, capture, rep, out);
    segments = segments_of(rep, capture);
    return true;
  };

  // Warm-up: the host needs about a second of load before repetitions
  // time steadily.  Peak memory is taken after the first repetition: a
  // user runs the workload once, and later repetitions only re-run it
  // (the allocator may grow its heap across them without any change to
  // the program).
  repetition rep;
  bool ok = repeat(rep);
  const double rss_mb = peak_rss_mb();
  const clock::time_point warm_end = clock::now() + to_duration(warmup_seconds);
  while (ok && clock::now() < warm_end) {
    ok = repeat(rep);
  }
  setup_times.clear();

  std::vector<double> rates;
  std::vector<std::vector<double>> timed_segments;
  const clock::time_point deadline = clock::now() + to_duration(opt.seconds);
  while (ok) {
    // A campaign that throws delivers no verdict: all its traces fail,
    // and repeating it would measure nothing.
    const clock::time_point begun = clock::now();
    ok = repeat(rep);
    if (ok) {
      rates.push_back(static_cast<double>(spec.traces) / rep.seconds);
      timed_segments.push_back(segments);
    }
    // Stop where another repetition like this one would overrun.
    const clock::time_point now = clock::now();
    if (now + (now - begun) > deadline) {
      break;
    }
  }

  const double floor_s = floor_seconds(timed_segments);
  if (ok && !(floor_s > 0.0)) {
    out.problems.push_back("repetitions delivered different batches");
  }
  out.add("traces_per_s", static_cast<double>(spec.traces) / floor_s, "1/s");
  out.add("setup_s", percentile(setup_times, setup_percentile), "s");
  out.add("peak_rss_mb", rss_mb, "MB");
  std::printf("{\"repetitions\":%zu,\"segments\":%zu,"
              "\"median_traces_per_s\":%.1f,\"traces_per_s_p10\":%.1f,"
              "\"traces_per_s_p90\":%.1f,\"setups\":%zu,"
              "\"setup_s_median\":%.6f}\n",
              rates.size(), segments.size(), median(rates),
              percentile(rates, 10), percentile(rates, 90),
              setup_times.size(), median(setup_times));
  return out;
}

} // namespace perfbench
