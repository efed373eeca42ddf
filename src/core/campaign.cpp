#include "core/campaign.h"

#include <utility>

#include "core/ordered_dispatch.h"

namespace usca::core {

namespace {

trace_record to_trace_record(acquisition_record&& rec) {
  trace_record out;
  out.index = rec.index;
  for (std::size_t b = 0; b < out.plaintext.size(); ++b) {
    out.plaintext[b] = static_cast<std::uint8_t>(rec.labels[b]);
  }
  out.samples = std::move(rec.samples);
  out.window_begin = rec.window_begin;
  out.window_end = rec.window_end;
  out.cycles = rec.cycles;
  out.marks = std::move(rec.marks);
  return out;
}

} // namespace

trace_campaign::trace_campaign(campaign_config config, crypto::aes_key key)
    : config_(config), key_(key),
      layout_(crypto::generate_aes128_program()),
      round_keys_(crypto::expand_key(key_)),
      image_(sim::program_image(layout_.prog)) {
  if (config_.simulated_second_core) {
    second_core_ = std::make_shared<power::second_core_noise>(
        config_.uarch, config_.power.weights, config_.seed ^ 0xc0de,
        config_.second_core_cycles);
  }
  plaintext_ = [](std::size_t, util::xoshiro256& rng) {
    crypto::aes_block pt;
    for (auto& b : pt) {
      b = rng.next_u8();
    }
    return pt;
  };
}

void trace_campaign::set_plaintext_policy(plaintext_fn policy) {
  plaintext_ = std::move(policy);
}

unsigned trace_campaign::resolved_threads() const noexcept {
  return resolved_worker_count(config_.threads, config_.traces);
}

acquisition_campaign trace_campaign::engine() const {
  acquisition_config acq;
  acq.traces = config_.traces;
  acq.first_index = config_.first_index;
  acq.threads = config_.threads;
  acq.seed = config_.seed;
  acq.averaging = config_.averaging;
  acq.window = config_.window;
  acq.power = config_.power;
  acq.uarch = config_.uarch;
  acq.backend = config_.backend;
  acq.sim_batch_lanes = config_.sim_batch_lanes;

  acquisition_campaign engine(image_, acq, second_core_);
  engine.set_setup([this](std::size_t index, util::xoshiro256& rng,
                          sim::backend& core, std::vector<double>& labels) {
    const crypto::aes_block pt = plaintext_(index, rng);
    crypto::install_aes_inputs(core.memory(), layout_, round_keys_, pt);
    labels.assign(pt.begin(), pt.end());
  });
  return engine;
}

trace_record trace_campaign::produce(std::size_t index) const {
  return to_trace_record(engine().produce(index));
}

void trace_campaign::run(const sink_fn& sink) {
  engine().run([&sink](acquisition_record&& rec) {
    sink(to_trace_record(std::move(rec)));
  });
}

void trace_campaign::run(analysis_pass& pass) { engine().run(pass); }

void aes_campaign_source::for_each_batch(std::size_t max_batch,
                                         const batch_fn& fn) {
  acquisition_campaign engine = campaign_.engine();
  acquisition_source(engine).for_each_batch(max_batch, fn);
}

} // namespace usca::core
