#include "core/acquisition.h"

#include <array>
#include <utility>

#include "core/ordered_dispatch.h"
#include "sim/ooo/ooo_core.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::core {

namespace {

/// Activity recording both core kinds are built with: none for pure
/// timing acquisitions, up to the window's end mark for marker windows
/// (activity past it can never land inside the window, so recording it
/// would only burn time and memory), the whole run otherwise.
template <typename Core>
void configure_recording(Core& core, const acquisition_config& config) {
  if (!config.synthesize) {
    core.set_record_activity(false);
  } else if (!config.full_run_window) {
    core.set_activity_cutoff_mark(config.window.end_mark);
  }
}

[[noreturn]] void throw_window_not_found() {
  throw util::analysis_error(
      "acquisition window marks not found (or empty window) in the "
      "simulated program");
}

} // namespace

bool find_campaign_window(const std::vector<sim::mark_stamp>& marks,
                          const campaign_window& window, std::uint64_t& begin,
                          std::uint64_t& end) noexcept {
  bool begin_seen = false;
  bool end_seen = false;
  for (const auto& m : marks) {
    if (!begin_seen && m.id == window.begin_mark) {
      begin = m.cycle;
      begin_seen = true;
    } else if (!end_seen && m.id == window.end_mark) {
      end = m.cycle;
      end_seen = true;
    }
  }
  return begin_seen && end_seen && end > begin;
}

std::uint64_t acquisition_campaign::trace_seed(std::uint64_t campaign_seed,
                                               std::size_t index) noexcept {
  // One splitmix64 step over a golden-ratio-strided state decorrelates
  // neighbouring indices and neighbouring campaign seeds alike.
  std::uint64_t state = campaign_seed +
                        0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(index) + 1);
  return util::splitmix64(state);
}

acquisition_campaign::acquisition_campaign(
    sim::program_image image, acquisition_config config,
    std::shared_ptr<const power::second_core_noise> second_core)
    : image_(std::move(image)), config_(config),
      second_core_(std::move(second_core)),
      setup_([](std::size_t, util::xoshiro256&, sim::backend&,
                std::vector<double>&) {}) {}

void acquisition_campaign::set_setup(setup_fn setup) {
  setup_ = std::move(setup);
}

acquisition_campaign acquisition_campaign::slice(std::size_t first_index,
                                                 std::size_t traces) const {
  acquisition_campaign sub = *this;
  sub.config_.first_index = first_index;
  sub.config_.traces = traces;
  return sub;
}

unsigned acquisition_campaign::resolved_threads() const noexcept {
  return resolved_worker_count(config_.threads, config_.traces);
}

std::unique_ptr<sim::backend> acquisition_campaign::make_backend() const {
  std::unique_ptr<sim::backend> core =
      sim::make_backend(config_.backend, image_, config_.uarch);
  configure_recording(*core, config_);
  return core;
}

power::trace_synthesizer acquisition_campaign::make_synthesizer() const {
  power::trace_synthesizer synth(config_.power, 0);
  if (second_core_) {
    synth.attach_second_core(second_core_);
  }
  return synth;
}

void acquisition_campaign::synthesize_into(
    const sim::activity_trace& activity, power::trace_synthesizer& synth,
    std::uint64_t synthesis_seed, acquisition_record& rec) const {
  const auto begin = static_cast<std::uint32_t>(rec.window_begin);
  const auto end = static_cast<std::uint32_t>(rec.window_end);
  if (rec.index < config_.keep_activity_first) {
    rec.window_activity.clear();
    for (const sim::activity_event& ev : activity) {
      if (ev.cycle >= begin && ev.cycle < end) {
        rec.window_activity.push_back(ev);
      }
    }
  }
  synth.reseed(synthesis_seed);
  rec.samples = config_.averaging > 1
                    ? synth.synthesize_averaged(activity, begin, end,
                                                config_.averaging)
                    : synth.synthesize(activity, begin, end);
}

void acquisition_campaign::produce_into(sim::backend& core,
                                        power::trace_synthesizer& synth,
                                        std::size_t index,
                                        acquisition_record& rec) const {
  TELEM_SPAN("campaign.trace");
  // Everything random about trial `index` derives from its per-index
  // seed: one private stream for the trial's inputs, one for its
  // measurement noise (and second-core phase).
  std::uint64_t stream = trace_seed(config_.seed, index);
  const std::uint64_t setup_seed = util::splitmix64(stream);
  const std::uint64_t synthesis_seed = util::splitmix64(stream);

  rec.index = index;
  util::xoshiro256 setup_rng(setup_seed);
  setup_(index, setup_rng, core, rec.labels);

  core.warm_caches();
  core.run();
  rec.cycles = core.cycles();
  rec.instructions = core.instructions_issued();
  rec.marks = core.marks();

  static const telem::counter traces{"campaign.traces", "traces", "campaign"};
  static const telem::counter cycles{"campaign.cycles", "cycles", "campaign"};
  traces.add();
  cycles.add(rec.cycles);

  if (config_.full_run_window) {
    rec.window_begin = 0;
    rec.window_end = core.cycles() + config_.full_run_tail_pad;
  } else if (!find_campaign_window(rec.marks, config_.window,
                                   rec.window_begin, rec.window_end)) {
    throw_window_not_found();
  }

  if (config_.synthesize) {
    synthesize_into(core.activity(), synth, synthesis_seed, rec);
  }
}

std::size_t acquisition_campaign::batch_lanes() const {
  if (config_.backend == sim::backend_kind::ooo &&
      sim::ooo_reference_selected(config_.uarch)) {
    // The reference scheduler exists as the differential oracle and has
    // no batched counterpart: it runs on the per-trace path.
    return 0;
  }
  std::size_t lanes = sim::resolve_sim_batch_lanes(config_.sim_batch_lanes);
  if (lanes > config_.traces) {
    lanes = config_.traces;
  }
  return lanes;
}

std::unique_ptr<sim::batch_backend> acquisition_campaign::make_batch_backend(
    std::size_t lanes) const {
  std::unique_ptr<sim::batch_backend> batch =
      sim::make_batch_backend(config_.backend, image_, config_.uarch, lanes);
  configure_recording(*batch, config_);
  return batch;
}

void acquisition_campaign::produce_batch_into(
    sim::batch_backend& batch, std::unique_ptr<sim::backend>& fallback,
    power::trace_synthesizer& synth, std::size_t first_index,
    std::size_t count, std::vector<acquisition_record>& recs) const {
  TELEM_SPAN("campaign.batch");
  recs.resize(count);
  batch.limit_active_lanes(count);
  batch.reset();

  // Same per-index derivation as produce_into; the setup callback writes
  // each trial's registers/memory through a lane view of the batch.
  std::array<std::uint64_t, sim::max_batch_lanes> synthesis_seeds{};
  for (std::size_t l = 0; l < count; ++l) {
    const std::size_t index = first_index + l;
    std::uint64_t stream = trace_seed(config_.seed, index);
    const std::uint64_t setup_seed = util::splitmix64(stream);
    synthesis_seeds[l] = util::splitmix64(stream);

    recs[l].index = index;
    util::xoshiro256 setup_rng(setup_seed);
    sim::batch_lane_view lane(batch, l);
    setup_(index, setup_rng, lane, recs[l].labels);
  }

  batch.warm_caches();
  batch.run();

  std::uint64_t window_begin = 0;
  std::uint64_t window_end = 0;
  bool window_found = true;
  if (config_.full_run_window) {
    window_end = batch.cycles() + config_.full_run_tail_pad;
  } else {
    window_found = find_campaign_window(batch.marks(), config_.window,
                                        window_begin, window_end);
  }

  static const telem::counter traces{"campaign.traces", "traces", "campaign"};
  static const telem::counter cycles{"campaign.cycles", "cycles", "campaign"};
  static const telem::counter fallbacks{"campaign.lane_fallbacks", "traces",
                                        "campaign"};

  for (std::size_t l = 0; l < count; ++l) {
    if (batch.lane_diverged(l)) {
      // Data-dependent timing left the shared schedule; redo this trial
      // on a per-trace core (labels included: the record is rebuilt from
      // scratch so the setup callback runs exactly once).
      fallbacks.add();
      if (!fallback) {
        fallback = make_backend();
      } else {
        fallback->reset();
      }
      recs[l] = acquisition_record{};
      produce_into(*fallback, synth, first_index + l, recs[l]);
      continue;
    }
    if (!window_found) {
      throw_window_not_found();
    }
    acquisition_record& rec = recs[l];
    rec.cycles = batch.cycles();
    rec.instructions = batch.instructions_issued();
    rec.marks = batch.marks();
    rec.window_begin = window_begin;
    rec.window_end = window_end;
    traces.add();
    cycles.add(rec.cycles);

    if (config_.synthesize) {
      synthesize_into(batch.activity(l), synth, synthesis_seeds[l], rec);
    }
  }
}

acquisition_record acquisition_campaign::produce(std::size_t index) const {
  std::unique_ptr<sim::backend> core = make_backend();
  power::trace_synthesizer synth = make_synthesizer();
  acquisition_record rec;
  produce_into(*core, synth, index, rec);
  return rec;
}

void acquisition_campaign::run(analysis_pass& pass) {
  acquisition_source source(*this);
  pump(source, pass);
}

void acquisition_source::for_each_batch(std::size_t max_batch,
                                        const batch_fn& fn) {
  if (max_batch == 0) {
    max_batch = default_batch_traces;
  }
  batch_builder builder(max_batch);
  campaign_.run([&](acquisition_record&& rec) {
    builder.push(rec.index, rec.labels, rec.samples, fn);
  });
  builder.flush(fn);
}

void acquisition_campaign::run(const sink_fn& sink) {
  const std::size_t first = config_.first_index;
  const std::size_t lanes = batch_lanes();

  if (lanes == 0) {
    // Per-trace reference path.  Each worker owns one backend and one
    // synthesizer for its whole shard; per trial only reset() (no
    // reallocation) and reseed() separate it from a freshly constructed
    // pair, which the reset-equivalence tests pin as bit-identical.
    struct worker_context {
      std::unique_ptr<sim::backend> core;
      power::trace_synthesizer synth;
    };

    ordered_parallel_produce(
        config_.traces, resolved_threads(),
        [this](unsigned) {
          return worker_context{make_backend(), make_synthesizer()};
        },
        [this, first](worker_context& ctx, std::size_t i) {
          ctx.core->reset();
          acquisition_record rec;
          produce_into(*ctx.core, ctx.synth, first + i, rec);
          return rec;
        },
        sink);
    return;
  }

  // Batched path: groups of `lanes` consecutive trials per batch run,
  // claimed by the workers, reordered, and unrolled in index order on
  // this thread — same records, same order as per-trace.
  const std::size_t groups = (config_.traces + lanes - 1) / lanes;
  struct batch_worker_context {
    std::unique_ptr<sim::batch_backend> batch;
    std::unique_ptr<sim::backend> fallback; // lazy: built on first ejection
    power::trace_synthesizer synth;
  };

  ordered_parallel_produce(
      groups, resolved_worker_count(config_.threads, groups),
      [this, lanes](unsigned) {
        return batch_worker_context{make_batch_backend(lanes), nullptr,
                                    make_synthesizer()};
      },
      [this, first, lanes](batch_worker_context& ctx, std::size_t g) {
        const std::size_t begin = g * lanes;
        const std::size_t count =
            begin + lanes <= config_.traces ? lanes : config_.traces - begin;
        std::vector<acquisition_record> recs;
        produce_batch_into(*ctx.batch, ctx.fallback, ctx.synth, first + begin,
                           count, recs);
        return recs;
      },
      [&sink](std::vector<acquisition_record>&& recs) {
        for (acquisition_record& rec : recs) {
          sink(std::move(rec));
        }
      });
}

} // namespace usca::core
