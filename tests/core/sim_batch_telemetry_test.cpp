// Lane-invariance contract of the telemetry registry.
//
// The per-trace counters — everything under campaign.*, sim.inorder.* and
// sim.ooo.* — count what the traces did, not how they were grouped: a
// campaign adds the same deltas at every batch width and thread count,
// on both backends, with a speculating predictor whose lanes get ejected
// and redone as groups of one.  campaign.lane_fallbacks is the one
// exception under those prefixes: it counts ejections, which exist only
// in batches.
//
// The batch-occupancy metrics (sim.batch.lanes, sim.batch.active_lane_
// cycles) are the opposite by design: they describe batched groups, and
// per-trace work — a per-trace campaign, produce(), a directly run
// sim::pipeline or sim::ooo_core — feeds none of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/acquisition.h"
#include "crypto/aes_codegen.h"
#include "sim/batch_sim.h"
#include "sim/ooo/ooo_core.h"
#include "sim/pipeline.h"
#include "util/telemetry.h"

namespace usca {
namespace {

using counter_map = std::map<std::string, std::uint64_t>;

bool per_trace_counter(const std::string& name) {
  const bool prefixed = name.rfind("campaign.", 0) == 0 ||
                        name.rfind("sim.inorder.", 0) == 0 ||
                        name.rfind("sim.ooo.", 0) == 0;
  return prefixed && name != "campaign.lane_fallbacks";
}

counter_map per_trace_counters() {
  counter_map out;
  for (const telem::metric_sample& s : telem::snapshot()) {
    if (s.info.kind == telem::metric_kind::counter &&
        per_trace_counter(s.info.name)) {
      out[s.info.name] = s.count;
    }
  }
  return out;
}

/// Nonzero growth of each counter between two snapshots.
counter_map growth(const counter_map& before, const counter_map& after) {
  counter_map out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t start = it == before.end() ? 0 : it->second;
    if (value != start) {
      out[name] = value - start;
    }
  }
  return out;
}

/// Everything the batch-occupancy metrics have recorded so far.
std::uint64_t batch_occupancy() {
  std::uint64_t total = 0;
  for (const telem::metric_sample& s : telem::snapshot()) {
    if (s.info.name == "sim.batch.lanes" ||
        s.info.name == "sim.batch.active_lane_cycles") {
      total += s.count;
    }
  }
  return total;
}

const crypto::aes_round_keys& round_keys() {
  static const crypto::aes_round_keys rk = crypto::expand_key(
      {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15,
       0x88, 0x09, 0xcf, 0x4f, 0x3c});
  return rk;
}

/// A campaign on the branchy AES (its key-dependent xtime branches eject
/// lanes), speculating under a bimodal predictor on the OoO backend.
core::acquisition_campaign branchy_campaign(
    const crypto::aes_program_layout& layout, sim::backend_kind backend,
    int lanes, unsigned threads) {
  core::acquisition_config config;
  config.traces = 40;
  config.threads = threads;
  config.seed = 0x1a9e;
  config.backend = backend;
  config.uarch = backend == sim::backend_kind::ooo
                     ? sim::cortex_a7_ooo_spec(sim::speculation_config{
                           .predictor = sim::predictor_kind::bimodal})
                     : sim::cortex_a7();
  config.sim_batch_lanes = lanes;
  core::acquisition_campaign campaign(sim::program_image(layout.prog),
                                      config);
  campaign.set_setup([&layout](std::size_t, util::xoshiro256& rng,
                               sim::backend& core, std::vector<double>&) {
    crypto::aes_block pt{};
    for (std::uint8_t& b : pt) {
      b = rng.next_u8();
    }
    crypto::install_aes_inputs(core.memory(), layout, round_keys(), pt);
  });
  return campaign;
}

class SimBatchTelemetry : public ::testing::TestWithParam<sim::backend_kind> {
protected:
  void TearDown() override {
    telem::set_enabled(false);
    telem::reset_for_test();
  }

  const crypto::aes_program_layout layout_ =
      crypto::generate_aes128_branchy_program();
};

INSTANTIATE_TEST_SUITE_P(Backends, SimBatchTelemetry,
                         ::testing::Values(sim::backend_kind::inorder,
                                           sim::backend_kind::ooo),
                         [](const auto& info) {
                           return info.param == sim::backend_kind::ooo
                                      ? "ooo"
                                      : "inorder";
                         });

/// Whether a campaign configured with `lanes` actually batches (the
/// environment can force per-trace runs or a width).
bool batches(sim::backend_kind backend, int lanes) {
  return sim::resolve_sim_batch_lanes(lanes) > 1 &&
         !(backend == sim::backend_kind::ooo && sim::ooo_reference_forced());
}

TEST_P(SimBatchTelemetry, PerTraceCountersAreLaneAndThreadInvariant) {
  const telem::counter fallbacks{"campaign.lane_fallbacks", "traces",
                                 "campaign"};
  counter_map reference;
  bool have_reference = false;
  for (const int lanes : {0, 7, 32}) {
    for (const unsigned threads : {1U, 3U}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " threads=" + std::to_string(threads));
      core::acquisition_campaign campaign =
          branchy_campaign(layout_, GetParam(), lanes, threads);
      const counter_map before = per_trace_counters();
      const std::uint64_t fallbacks_before = fallbacks.value();
      campaign.run([](core::acquisition_record&&) {});
      const counter_map added = growth(before, per_trace_counters());
      EXPECT_EQ(added.at("campaign.traces"), 40u);
      if (batches(GetParam(), lanes)) {
        // The redo path is exercised: some lanes were ejected.
        EXPECT_GT(fallbacks.value(), fallbacks_before);
      }
      if (!have_reference) {
        reference = added;
        have_reference = true;
      } else {
        EXPECT_EQ(added, reference);
      }
    }
  }
}

TEST_P(SimBatchTelemetry, PerTraceWorkFeedsNoBatchOccupancy) {
  // A per-trace campaign (unless USCA_SIM_BATCH forces a width).
  if (sim::resolve_sim_batch_lanes(0) == 0) {
    core::acquisition_campaign per_trace =
        branchy_campaign(layout_, GetParam(), 0, 2);
    const std::uint64_t before = batch_occupancy();
    per_trace.run([](core::acquisition_record&&) {});
    EXPECT_EQ(batch_occupancy(), before);
  }

  // produce() is a group of one even on a batched campaign.
  core::acquisition_campaign batched =
      branchy_campaign(layout_, GetParam(), 7, 1);
  std::uint64_t before = batch_occupancy();
  (void)batched.produce(3);
  EXPECT_EQ(batch_occupancy(), before);

  // The campaign itself does report its groups, when it batches at all
  // (USCA_SIM_BATCH=0 and the OoO reference scheduler run per-trace).
  before = batch_occupancy();
  batched.run([](core::acquisition_record&&) {});
  if (batches(GetParam(), 7)) {
    EXPECT_GT(batch_occupancy(), before);
  }

  // A per-trace core run directly (sim::ooo_core refuses to exist under
  // USCA_OOO_REFERENCE=1).
  const sim::program_image image(layout_.prog);
  before = batch_occupancy();
  if (GetParam() == sim::backend_kind::ooo) {
    if (sim::ooo_reference_forced()) {
      return;
    }
    sim::ooo_core core(image, sim::cortex_a7_ooo());
    core.warm_caches();
    core.run();
  } else {
    sim::pipeline core(image, sim::cortex_a7());
    core.warm_caches();
    core.run();
  }
  EXPECT_EQ(batch_occupancy(), before);
}

} // namespace
} // namespace usca
