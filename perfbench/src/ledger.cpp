// Traced run: where a trace's host time goes, layer by layer.
//
// Two parts per round, repeated for --seconds (at least one round):
//
//  * a single-thread replica of the workload's inner loop, built from the
//    library's public calls (sim::make_batch_backend / make_backend,
//    crypto::install_aes_inputs, power::trace_synthesizer, the stats
//    accumulators, the trace store writer/reader, core::merge_stores),
//    timing each call; what no call accounts for is its own row;
//  * the real campaign at two workers with telemetry on and every
//    consume_batch wrapped by a timing pass, plus untraced runs at two
//    and one worker for the tracing overhead and the thread speedup.
//
// The replica must produce records byte-identical to the campaign's and
// run the same engine (batched or per-trace), or the run fails: the
// ledger then measures the work the end-to-end number measures.
// Metrics that do not apply to a workload read 0.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>

#include "bench.h"
#include "core/campaign_fabric.h"
#include "power/trace_store_reader.h"
#include "sim/batch_sim.h"
#include "sim/ooo/ooo_core.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace perfbench {

namespace {

/// Adds the scope's duration, in nanoseconds, to `sink`.
class timed {
public:
  explicit timed(double& sink) : sink_(sink), start_(clock::now()) {}
  ~timed() {
    sink_ += std::chrono::duration<double, std::nano>(clock::now() - start_)
                 .count();
  }
  timed(const timed&) = delete;
  timed& operator=(const timed&) = delete;

private:
  double& sink_;
  clock::time_point start_;
};

/// Replica host time by the library call that spent it (ns).
struct layer_ns {
  double reset = 0, install = 0, run = 0, fallback = 0, synth = 0,
         cpa_acc = 0, tvla_acc = 0, store_write = 0, merge = 0,
         store_open = 0, store_read = 0, cpa_solve = 0, tvla_solve = 0;

  double accounted() const {
    return reset + install + run + fallback + synth + cpa_acc + tvla_acc +
           store_write + merge + store_open + store_read + cpa_solve +
           tvla_solve;
  }
};

struct replica_result {
  layer_ns ns;
  double total_ns = 0;
  double digest_ns = 0; ///< the self-check's own cost, not the workload's
  bool batched = false;
  std::uint64_t cycles = 0;       ///< simulated cycles over all records
  std::uint64_t instructions = 0;
  std::uint64_t events = 0;       ///< activity events recorded
  std::uint64_t mispredicts = 0;
  std::uint64_t run_lane_cycles = 0; ///< trace-cycles simulated by run()
  std::uint64_t lanes = 0;
  std::uint64_t ejected = 0;
  std::size_t samples = 0;
  std::uint64_t store_bytes = 0;
  std::vector<std::uint64_t> digests;
  verdict v;
};

/// The stats accumulators of one replica, fed one SoA tile at a time in
/// the same 256-row tiles the pump delivers.
struct replica_analysis {
  std::vector<stats::partitioned_cpa> cpa;
  std::optional<stats::tvla_accumulator> tvla;
  std::vector<std::uint8_t> partitions;
  std::vector<unsigned char> classes;

  replica_analysis(const workload_spec& spec, std::size_t samples) {
    if (spec.cpa) {
      for (std::size_t b = 0; b < 16; ++b) {
        cpa.emplace_back(samples);
      }
    }
    if (spec.tvla) {
      tvla.emplace(samples);
    }
  }

  void accumulate(std::size_t first_index, std::size_t rows,
                  const double* labels, std::size_t label_stride,
                  const double* samples, std::size_t sample_stride,
                  layer_ns& ns) {
    if (!cpa.empty()) {
      const timed t(ns.cpa_acc);
      partitions.resize(rows);
      for (std::size_t b = 0; b < cpa.size(); ++b) {
        for (std::size_t r = 0; r < rows; ++r) {
          partitions[r] =
              static_cast<std::uint8_t>(labels[r * label_stride + b]);
        }
        cpa[b].add_batch(partitions, samples, sample_stride, rows);
      }
    }
    if (tvla) {
      const timed t(ns.tvla_acc);
      classes.resize(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        classes[r] = (first_index + r) % 2 == 0 ? 1 : 0;
      }
      tvla->add_batch(samples, sample_stride, rows, classes);
    }
  }

  void solve(verdict& v, layer_ns& ns) {
    if (!cpa.empty()) {
      const timed t(ns.cpa_solve);
      for (const stats::partitioned_cpa& c : cpa) {
        v.cpa.push_back(c.solve(subbytes_hw_model, 256));
      }
    }
    if (tvla) {
      const timed t(ns.tvla_solve);
      v.tvla_abs_t = tvla->abs_t();
      v.tvla_max_t = tvla->max_abs_t();
    }
  }
};

/// Single-thread replica of a live campaign's inner loop.
replica_result replicate_campaign(const workload_spec& spec,
                                  const std::string& store_path) {
  // Untimed construction of what each campaign worker owns.
  const crypto::aes_program_layout layout =
      spec.spec ? crypto::generate_aes128_branchy_program()
                : crypto::generate_aes128_program();
  const crypto::aes_round_keys rk = crypto::expand_key(spec.key);
  const sim::program_image image(layout.prog);
  const core::campaign_config config =
      campaign_config_of(spec, 1, 0, spec.traces);
  const std::size_t n = spec.traces;

  replica_result out;
  std::size_t lanes = std::min(sim::resolve_sim_batch_lanes(-1), n);
  std::unique_ptr<sim::batch_backend> batch;
  if (lanes > 0) {
    try {
      batch = sim::make_batch_backend(spec.backend, image, spec.uarch, lanes);
      batch->set_activity_cutoff_mark(config.window.end_mark);
    } catch (const util::simulation_error&) {
      // No batched counterpart for this core (e.g. a speculating front
      // end): the campaign runs per-trace, and so does the replica.
    }
  }
  out.batched = batch != nullptr;
  const std::unique_ptr<sim::backend> single =
      sim::make_backend(spec.backend, image, spec.uarch);
  single->set_activity_cutoff_mark(config.window.end_mark);
  power::trace_synthesizer synth(config.power, 0);

  // Records are packed into the same 256-row tiles the pump delivers.
  core::batch_builder tiles(core::trace_source::default_batch_traces);
  std::optional<replica_analysis> analysis;
  std::optional<power::trace_store_writer> writer;
  const auto consume = [&](const core::trace_batch_view& tile) {
    analysis->accumulate(tile.first_index, tile.count, tile.labels,
                         tile.label_stride, tile.samples, tile.sample_stride,
                         out.ns);
    if (writer) {
      const timed t(out.ns.store_write);
      for (std::size_t r = 0; r < tile.count; ++r) {
        writer->append(tile.labels_row(r), tile.samples_row(r));
      }
    }
  };
  const auto push = [&](std::size_t index, std::span<const double> labels,
                        const power::trace& trace) {
    std::span<const double> samples(trace);
    if (spec.spec) {
      samples = samples.first(std::min(samples.size(), spec_prefix_samples));
    }
    if (!analysis) {
      out.samples = samples.size();
      analysis.emplace(spec, out.samples);
      if (!store_path.empty()) {
        power::trace_store_descriptor desc = store_descriptor(spec, 0);
        desc.samples = out.samples;
        desc.labels = static_cast<std::uint32_t>(labels.size());
        const timed t(out.ns.store_write);
        writer.emplace(power::trace_store_writer::create(store_path, desc));
      }
    }
    {
      const timed t(out.digest_ns);
      out.digests.push_back(record_digest(labels, samples));
    }
    tiles.push(index, labels, samples, consume);
  };
  // Per-index inputs, derived exactly as the campaign engines derive them.
  const auto draw_inputs = [&](std::size_t index, mem::memory& memory,
                               std::vector<double>& labels) {
    std::uint64_t stream =
        core::trace_campaign::trace_seed(spec.campaign_seed, index);
    util::xoshiro256 rng(util::splitmix64(stream));
    const std::uint64_t synth_seed = util::splitmix64(stream);
    if (spec.spec) {
      spec_setup(layout, rk, index, rng, memory, labels);
    } else {
      crypto::aes_block pt;
      for (auto& b : pt) {
        b = rng.next_u8();
      }
      crypto::install_aes_inputs(memory, layout, rk, pt);
      labels.assign(pt.begin(), pt.end());
    }
    return synth_seed;
  };
  const auto synthesize = [&](const sim::activity_trace& activity,
                              std::uint64_t begin, std::uint64_t end,
                              std::uint64_t seed) {
    synth.reseed(seed);
    return synth.synthesize_averaged(activity,
                                     static_cast<std::uint32_t>(begin),
                                     static_cast<std::uint32_t>(end),
                                     campaign_averaging);
  };
  std::vector<double> labels;
  // One trace on the per-trace core: the whole path, or an ejected lane's
  // fallback (then every step is charged to the fallback row).
  const auto produce_single = [&](std::size_t index, bool fallback) {
    layer_ns& ns = out.ns;
    std::uint64_t seed = 0;
    {
      const timed t(fallback ? ns.fallback : ns.reset);
      single->reset();
    }
    {
      const timed t(fallback ? ns.fallback : ns.install);
      seed = draw_inputs(index, single->memory(), labels);
    }
    {
      const timed t(fallback ? ns.fallback : ns.run);
      single->warm_caches();
      single->run();
    }
    out.cycles += single->cycles();
    out.instructions += single->instructions_issued();
    out.events += single->activity().size();
    if (!fallback) {
      out.run_lane_cycles += single->cycles();
    }
    if (const auto* ooo = dynamic_cast<const sim::ooo_core*>(single.get())) {
      out.mispredicts += ooo->mispredicts();
    }
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    if (!core::find_campaign_window(single->marks(), config.window, begin,
                                    end)) {
      throw util::analysis_error("replica: window marks not found");
    }
    power::trace samples;
    {
      const timed t(fallback ? ns.fallback : ns.synth);
      samples = synthesize(single->activity(), begin, end, seed);
    }
    push(index, labels, samples);
  };

  const clock::time_point start = clock::now();
  if (!batch) {
    for (std::size_t i = 0; i < n; ++i) {
      produce_single(i, false);
    }
  } else {
    std::vector<std::vector<double>> lane_labels(lanes);
    std::vector<std::uint64_t> seeds(lanes);
    for (std::size_t first = 0; first < n; first += lanes) {
      const std::size_t count = std::min(lanes, n - first);
      {
        const timed t(out.ns.reset);
        batch->limit_active_lanes(count);
        batch->reset();
      }
      {
        const timed t(out.ns.install);
        for (std::size_t l = 0; l < count; ++l) {
          seeds[l] = draw_inputs(first + l, batch->memory(l), lane_labels[l]);
        }
      }
      {
        const timed t(out.ns.run);
        batch->warm_caches();
        batch->run();
      }
      out.run_lane_cycles += batch->cycles() * count;
      std::uint64_t begin = 0;
      std::uint64_t end = 0;
      const bool found = core::find_campaign_window(
          batch->marks(), config.window, begin, end);
      for (std::size_t l = 0; l < count; ++l) {
        ++out.lanes;
        if (batch->lane_diverged(l)) {
          ++out.ejected;
          produce_single(first + l, true);
          continue;
        }
        if (!found) {
          throw util::analysis_error("replica: window marks not found");
        }
        out.cycles += batch->cycles();
        out.instructions += batch->instructions_issued();
        out.events += batch->activity(l).size();
        power::trace samples;
        {
          const timed t(out.ns.synth);
          samples = synthesize(batch->activity(l), begin, end, seeds[l]);
        }
        push(first + l, lane_labels[l], samples);
      }
    }
  }
  tiles.flush(consume);
  if (writer) {
    const timed t(out.ns.store_write);
    writer->close();
  }
  analysis->solve(out.v, out.ns);
  out.total_ns =
      std::chrono::duration<double, std::nano>(clock::now() - start).count();
  if (!store_path.empty()) {
    out.store_bytes = std::filesystem::file_size(store_path);
  }
  return out;
}

/// Single-thread replica of archive_attack: merge, strict open, a plain
/// read of every record, tile accumulation and the solves.
replica_result replicate_archive(const workload_state& state,
                                 const std::string& merged_path) {
  replica_result out;
  const clock::time_point start = clock::now();
  {
    const timed t(out.ns.merge);
    core::merge_stores(state.shards, merged_path);
  }
  std::optional<power::trace_store_reader> reader;
  {
    const timed t(out.ns.store_open);
    reader.emplace(merged_path);
  }
  double checksum = 0.0;
  {
    const timed t(out.ns.store_read);
    reader->stream([&checksum](std::size_t, std::span<const double>,
                               std::span<const double> samples) {
      for (const double x : samples) {
        checksum += x;
      }
    });
  }
  {
    const timed t(out.digest_ns);
    reader->stream([&out](std::size_t, std::span<const double> labels,
                          std::span<const double> samples) {
      out.digests.push_back(record_digest(labels, samples));
    });
  }
  out.samples = reader->samples();
  replica_analysis analysis(state.spec, out.samples);
  for (std::size_t c = 0; c < reader->chunk_count(); ++c) {
    const power::batch_rows rows = reader->chunk_rows(c);
    analysis.accumulate(reader->first_index() + rows.first_record, rows.count,
                        rows.labels, rows.stride, rows.samples, rows.stride,
                        out.ns);
  }
  analysis.solve(out.v, out.ns);
  out.total_ns =
      std::chrono::duration<double, std::nano>(clock::now() - start).count();
  out.store_bytes = std::filesystem::file_size(merged_path);
  if (!std::isfinite(checksum)) {
    throw util::analysis_error("replica: non-finite samples in the store");
  }
  return out;
}

/// Wraps the workload's passes: times every consume_batch (the calling
/// thread's busy time) and the gaps between in-order deliveries.
class timing_pass final : public core::analysis_pass {
public:
  explicit timing_pass(std::vector<core::analysis_pass*> inner)
      : inner_(std::move(inner)) {}

  void begin(const core::stream_shape& shape) override {
    for (core::analysis_pass* p : inner_) {
      p->begin(shape);
    }
  }
  void consume_batch(const core::trace_batch_view& batch) override {
    const clock::time_point t0 = clock::now();
    if (delivered_) {
      waits_ms.push_back(
          std::chrono::duration<double, std::milli>(t0 - last_).count());
    }
    delivered_ = true;
    for (core::analysis_pass* p : inner_) {
      p->consume_batch(batch);
    }
    last_ = clock::now();
    busy_s += seconds_between(t0, last_);
  }
  void finish() override {
    for (core::analysis_pass* p : inner_) {
      p->finish();
    }
  }

  double busy_s = 0.0;
  std::vector<double> waits_ms;

private:
  std::vector<core::analysis_pass*> inner_;
  bool delivered_ = false;
  clock::time_point last_{};
};

/// Digests every delivered record, for the replica's byte-identity check.
class digest_pass final : public core::analysis_pass {
public:
  void consume_batch(const core::trace_batch_view& batch) override {
    for (std::size_t r = 0; r < batch.count; ++r) {
      digests.push_back(
          record_digest(batch.labels_row(r), batch.samples_row(r)));
    }
  }
  std::vector<std::uint64_t> digests;
};

std::map<std::string, std::uint64_t> counter_values() {
  std::map<std::string, std::uint64_t> out;
  for (const telem::metric_sample& m : telem::snapshot()) {
    if (m.info.kind == telem::metric_kind::counter) {
      out[m.info.name] = m.count;
    }
  }
  return out;
}

/// Per-round values of each metric, emitted as medians in first-seen order.
class ledger {
public:
  void put(const std::string& name, double value, const char* unit) {
    auto [it, fresh] = values_.try_emplace(name);
    if (fresh) {
      order_.emplace_back(name, unit);
    }
    it->second.push_back(value);
  }
  void emit(outcome& out) const {
    for (const auto& [name, unit] : order_) {
      out.add(name, median(values_.at(name)), unit);
    }
  }

private:
  std::vector<std::pair<std::string, std::string>> order_;
  std::map<std::string, std::vector<double>> values_;
};

double per_trace(double total, std::size_t traces) {
  return traces == 0 ? 0.0 : total / static_cast<double>(traces);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

} // namespace

outcome run_traced(const options& opt) {
  outcome out;
  workload_state state(opt);
  const workload_spec& spec = state.spec;
  const std::size_t n = spec.traces;
  const bool archive_attack = spec.wl == workload::archive_attack;
  state.set_up(campaign_workers);
  std::unique_ptr<live_campaign> one_worker;
  if (!archive_attack) {
    one_worker = std::make_unique<live_campaign>(spec, 1);
  }
  live_campaign* two_workers = state.live_source();

  // One checked repetition; a traced one runs with telemetry on, its
  // passes wrapped by a timing pass, and digests every record.
  struct measured {
    repetition rep;
    double busy_s = 0.0;
    std::vector<double> waits_ms;
    std::vector<std::uint64_t> digests;
    std::map<std::string, std::uint64_t> counters; ///< telemetry deltas
  };
  const auto repeat = [&](live_campaign* campaign,
                          bool traced) -> std::optional<measured> {
    analysis_set set(spec, state.store_path);
    capture_pass capture(state.indices);
    digest_pass digests;
    std::vector<core::analysis_pass*> passes = set.passes();
    passes.push_back(&capture);
    out.attempted += n;
    measured m;
    try {
      if (traced) {
        passes.push_back(&digests);
        timing_pass timing(passes);
        core::analysis_pass* top[] = {&timing};
        const std::map<std::string, std::uint64_t> before = counter_values();
        telem::set_enabled(true);
        m.rep = state.run(campaign, set, top);
        telem::set_enabled(false);
        m.counters = counter_values();
        for (auto& [name, value] : m.counters) {
          const auto b = before.find(name);
          value -= b == before.end() ? 0 : b->second;
        }
        m.busy_s = timing.busy_s;
        m.waits_ms = std::move(timing.waits_ms);
        m.digests = std::move(digests.digests);
      } else {
        m.rep = state.run(campaign, set, passes);
      }
    } catch (const std::exception& e) {
      telem::set_enabled(false);
      out.fail(n, std::string("campaign threw: ") + e.what());
      return std::nullopt;
    }
    out.failed += state.check(set, capture, m.rep, out);
    return m;
  };

  ledger led;
  std::vector<double> waits_ms;
  const std::string replica_store =
      spec.archive || archive_attack ? opt.work_dir + "/replica.trc" : "";
  // Rounds repeat while the next one, as long as the last, still ends
  // within --seconds (there is always at least one).
  const clock::time_point deadline = clock::now() + to_duration(opt.seconds);
  for (clock::duration last_round{}; clock::now() + last_round <= deadline;) {
    const clock::time_point round_start = clock::now();
    replica_result r;
    try {
      r = archive_attack ? replicate_archive(state, replica_store)
                         : replicate_campaign(spec, replica_store);
    } catch (const std::exception& e) {
      out.attempted += n;
      out.fail(n, std::string("replica threw: ") + e.what());
      break;
    }
    const std::optional<measured> untraced = repeat(two_workers, false);
    std::optional<measured> single;
    if (!archive_attack) {
      single = repeat(one_worker.get(), false);
    }
    const std::optional<measured> traced = repeat(two_workers, true);
    if (!untraced || !traced || (!archive_attack && !single)) {
      break; // a campaign that threw leaves nothing to attribute
    }

    // Self-checks: same records, same verdict, same engine.
    const std::vector<std::uint64_t>& live = traced->digests;
    if (r.digests != live) {
      const std::size_t common = std::min(r.digests.size(), live.size());
      std::size_t differ =
          std::max(r.digests.size(), live.size()) - common;
      for (std::size_t i = 0; i < common; ++i) {
        differ += r.digests[i] != live[i] ? 1 : 0;
      }
      out.fail(std::min(differ, n),
               "replica records differ from the campaign's (" +
                   std::to_string(differ) + " traces)");
    }
    if (!same_verdict(r.v, traced->rep.v)) {
      out.fail(n, "replica verdict differs from the campaign's");
    }
    const auto delta = [&](const char* name) {
      const auto it = traced->counters.find(name);
      return it == traced->counters.end() ? 0.0
                                          : static_cast<double>(it->second);
    };
    const bool campaign_batched = delta("sim.batch.active_lane_cycles") > 0;
    if (!archive_attack && campaign_batched != r.batched) {
      out.fail(n, std::string("engine changed under the ledger: campaign ") +
                      (campaign_batched ? "batched" : "per-trace") +
                      ", replica " + (r.batched ? "batched" : "per-trace"));
    }

    const layer_ns& ns = r.ns;
    led.put("sim.run_ns_per_trace", per_trace(ns.run, n), "ns");
    led.put("sim.host_ns_per_sim_cycle",
            ratio(ns.run, static_cast<double>(r.run_lane_cycles)), "ns");
    led.put("sim.fallback_ns_per_trace", per_trace(ns.fallback, n), "ns");
    led.put("sim.lanes_ejected_frac",
            ratio(static_cast<double>(r.ejected), static_cast<double>(r.lanes)),
            "frac");
    led.put("sim.mispredicts_per_trace",
            archive_attack ? 0.0 : per_trace(static_cast<double>(r.mispredicts), n),
            "count");
    led.put("sim.cycles_per_trace",
            archive_attack ? 0.0 : per_trace(static_cast<double>(r.cycles), n),
            "cycles");
    led.put("sim.ipc",
            ratio(static_cast<double>(r.instructions),
                  static_cast<double>(r.cycles)),
            "instr/cycle");
    led.put("sim.activity_events_per_trace",
            archive_attack ? 0.0 : per_trace(static_cast<double>(r.events), n),
            "events");
    led.put("mem.reset_ns_per_trace", per_trace(ns.reset, n), "ns");
    led.put("mem.install_ns_per_trace", per_trace(ns.install, n), "ns");
    led.put("power.synth_ns_per_trace", per_trace(ns.synth, n), "ns");
    led.put("power.samples_per_trace", static_cast<double>(r.samples),
            "samples");
    led.put("power.store_write_ns_per_trace", per_trace(ns.store_write, n),
            "ns");
    led.put("power.store_bytes_per_trace",
            per_trace(static_cast<double>(r.store_bytes), n), "B");
    led.put("power.store_open_ms", ns.store_open / 1e6, "ms");
    led.put("power.store_read_ns_per_trace", per_trace(ns.store_read, n),
            "ns");
    led.put("stats.cpa_accumulate_ns_per_trace", per_trace(ns.cpa_acc, n),
            "ns");
    led.put("stats.tvla_accumulate_ns_per_trace", per_trace(ns.tvla_acc, n),
            "ns");
    led.put("stats.cpa_solve_ms", ns.cpa_solve / 1e6, "ms");
    led.put("stats.tvla_solve_ms", ns.tvla_solve / 1e6, "ms");
    led.put("core.merge_mb_per_s",
            ns.merge > 0 ? static_cast<double>(r.store_bytes) / 1e6 /
                               (ns.merge / 1e9)
                         : 0.0,
            "MB/s");
    led.put("core.pump_busy_frac",
            ratio(traced->busy_s,
                  traced->rep.seconds - traced->rep.solve_seconds),
            "frac");
    led.put("core.speedup_2w_vs_1w",
            single ? ratio(single->rep.seconds, untraced->rep.seconds) : 0.0,
            "x");
    led.put("campaign.traces", delta("campaign.traces"), "traces");
    led.put("campaign.cycles", delta("campaign.cycles"), "cycles");
    led.put("sim.batch.active_lane_cycles",
            delta("sim.batch.active_lane_cycles"), "lane-cycles");
    led.put("analysis.rows", delta("analysis.rows"), "traces");
    led.put("trace.overhead_frac",
            1.0 - ratio(untraced->rep.seconds, traced->rep.seconds), "frac");
    led.put("replica.total_ns_per_trace", per_trace(r.total_ns - r.digest_ns, n),
            "ns");
    led.put("replica.unaccounted_ns_per_trace",
            per_trace(r.total_ns - r.digest_ns - ns.accounted(), n), "ns");
    waits_ms.insert(waits_ms.end(), traced->waits_ms.begin(),
                    traced->waits_ms.end());
    last_round = clock::now() - round_start;
  }

  led.emit(out);
  out.add("core.batch_wait_ms_p50", percentile(waits_ms, 50), "ms");
  out.add("core.batch_wait_ms_p90", percentile(waits_ms, 90), "ms");
  out.add("core.batch_wait_samples", static_cast<double>(waits_ms.size()),
          "count");
  return out;
}

} // namespace perfbench
