#include "core/acquisition.h"

#include <array>
#include <utility>

#include "core/ordered_dispatch.h"
#include "sim/ooo/ooo_core.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::core {

namespace {

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

void acquisition_campaign::ready_core(
    std::unique_ptr<sim::batch_backend>& core, std::size_t lanes,
    std::size_t count) const {
  if (core) {
    core->reset();
  } else {
    core = sim::make_batch_backend(config_.backend, image_, config_.uarch,
                                   lanes);
    // Activity recording: none for pure timing acquisitions, up to the
    // window's end mark for marker windows (activity past it can never
    // land inside the window, so recording it would only burn time and
    // memory), the whole run otherwise.
    if (!config_.synthesize) {
      core->set_record_activity(false);
    } else if (!config_.full_run_window) {
      core->set_activity_cutoff_mark(config_.window.end_mark);
    }
  }
  core->limit_active_lanes(count);
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

std::size_t acquisition_campaign::batch_lanes() const {
  if (config_.backend == sim::backend_kind::ooo &&
      sim::ooo_reference_selected(config_.uarch)) {
    // The reference scheduler exists as the differential oracle and has
    // no batched form: it runs in groups of one.
    return 0;
  }
  std::size_t lanes = sim::resolve_sim_batch_lanes(config_.sim_batch_lanes);
  if (lanes > config_.traces) {
    lanes = config_.traces;
  }
  return lanes;
}

void acquisition_campaign::produce_group(
    sim::batch_backend& core, std::unique_ptr<sim::batch_backend>& single,
    power::trace_synthesizer& synth, std::size_t first_index,
    std::span<acquisition_record> recs) const {
  TELEM_SPAN("campaign.batch");
  // Everything random about trial `index` derives from its per-index
  // seed: one private stream for the trial's inputs, one for its
  // measurement noise (and second-core phase).  The setup callback writes
  // each trial's registers/memory through a lane view of the core.
  std::array<std::uint64_t, sim::max_batch_lanes> synthesis_seeds{};
  for (std::size_t l = 0; l < recs.size(); ++l) {
    const std::size_t index = first_index + l;
    std::uint64_t stream = trace_seed(config_.seed, index);
    const std::uint64_t setup_seed = util::splitmix64(stream);
    synthesis_seeds[l] = util::splitmix64(stream);

    recs[l].index = index;
    util::xoshiro256 setup_rng(setup_seed);
    sim::batch_lane_view lane(core, l);
    setup_(index, setup_rng, lane, recs[l].labels);
  }

  core.warm_caches();
  core.run();

  std::uint64_t window_begin = 0;
  std::uint64_t window_end = 0;
  bool window_found = true;
  if (config_.full_run_window) {
    window_end = core.cycles() + config_.full_run_tail_pad;
  } else {
    window_found = find_campaign_window(core.marks(), config_.window,
                                        window_begin, window_end);
  }

  static const telem::counter traces{"campaign.traces", "traces", "campaign"};
  static const telem::counter cycles{"campaign.cycles", "cycles", "campaign"};
  static const telem::counter fallbacks{"campaign.lane_fallbacks", "traces",
                                        "campaign"};

  for (std::size_t l = 0; l < recs.size(); ++l) {
    if (core.lane_diverged(l)) {
      // Data-dependent timing left the shared schedule; redo this trial
      // as a group of one (labels included: the record is rebuilt from
      // scratch so the setup callback runs exactly once).  A 1-lane core
      // never ejects, so it is its own fallback.
      fallbacks.add();
      ready_core(single, 1, 1);
      recs[l] = acquisition_record{};
      produce_group(*single, single, synth, first_index + l,
                    recs.subspan(l, 1));
      continue;
    }
    if (!window_found) {
      throw_window_not_found();
    }
    acquisition_record& rec = recs[l];
    rec.cycles = core.cycles();
    rec.instructions = core.instructions_issued();
    rec.marks = core.marks();
    rec.window_begin = window_begin;
    rec.window_end = window_end;
    traces.add();
    cycles.add(rec.cycles);

    if (config_.synthesize) {
      synthesize_into(core.activity(l), synth, synthesis_seeds[l], rec);
    }
  }
}

acquisition_record acquisition_campaign::produce(std::size_t index) const {
  std::unique_ptr<sim::batch_backend> core;
  ready_core(core, 1, 1);
  power::trace_synthesizer synth = make_synthesizer();
  acquisition_record rec;
  produce_group(*core, core, synth, index, std::span(&rec, 1));
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
  // Groups of `width` consecutive trials — one per group when per-trace —
  // claimed by the workers, reordered, and unrolled in index order on
  // this thread: the same records in the same order at every width.  Each
  // worker owns one core and one synthesizer for its whole shard; per
  // group only reset() (no reallocation) and reseed() separate them from
  // a freshly constructed pair, which the reset-equivalence tests pin as
  // bit-identical.
  const std::size_t width = lanes == 0 ? 1 : lanes;
  const std::size_t groups = (config_.traces + width - 1) / width;
  struct worker_context {
    std::unique_ptr<sim::batch_backend> core;   // built on the first group
    std::unique_ptr<sim::batch_backend> single; // built on the first ejection
    power::trace_synthesizer synth;
  };

  ordered_parallel_produce(
      groups, resolved_worker_count(config_.threads, groups),
      [this](unsigned) {
        return worker_context{nullptr, nullptr, make_synthesizer()};
      },
      [this, first, width, lanes](worker_context& ctx, std::size_t g) {
        const std::size_t begin = g * width;
        const std::size_t count =
            begin + width <= config_.traces ? width : config_.traces - begin;
        ready_core(ctx.core, width, count);
        std::vector<acquisition_record> recs(count);
        produce_group(*ctx.core, ctx.single, ctx.synth, first + begin, recs);
        if (lanes != 0) {
          // Batch occupancy describes batched groups only; per-trace work
          // feeds none of it.
          sim::note_batch_run(count, ctx.core->active_lane_cycles());
        }
        return recs;
      },
      [&sink](std::vector<acquisition_record>&& recs) {
        for (acquisition_record& rec : recs) {
          sink(std::move(rec));
        }
      });
}

} // namespace usca::core
