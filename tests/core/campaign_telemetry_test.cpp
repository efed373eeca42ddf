// Tests for the campaign observability layer: heartbeat file round
// trips (including torn/foreign files), the background heartbeat
// publisher lifecycle, snapshot export framing, the progress meter,
// and the load-bearing invariant of the whole telemetry stack —
// a campaign archives byte-identical stores with telemetry on and off.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "core/acquisition.h"
#include "core/campaign_telemetry.h"
#include "core/trace_archive.h"
#include "crypto/aes_codegen.h"
#include "sim/batch_sim.h"
#include "util/json_writer.h"
#include "util/telemetry.h"

namespace usca {
namespace {

std::string temp_path(const char* name) {
  return std::string("/tmp/usca_campaign_telemetry_test_") + name;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class CampaignTelemetryTest : public ::testing::Test {
protected:
  void TearDown() override {
    telem::set_enabled(false);
    telem::set_export_path("");
    telem::reset_for_test();
  }
};

// ----------------------------------------------------------- heartbeat

TEST_F(CampaignTelemetryTest, HeartbeatPathSuffix) {
  EXPECT_EQ(core::heartbeat_path("/data/run/shard_0003.trc"),
            "/data/run/shard_0003.trc.hb");
}

TEST_F(CampaignTelemetryTest, HeartbeatRoundTrip) {
  const std::string path = temp_path("hb_roundtrip");
  std::remove(path.c_str());

  core::worker_heartbeat hb;
  hb.pid = 4321;
  hb.first_index = 1000;
  hb.traces = 250;
  hb.produced = 97;
  hb.wall_ms = 1722000000123ULL;
  hb.state = "running";
  core::write_heartbeat(path, hb);

  const auto back = core::read_heartbeat(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pid, hb.pid);
  EXPECT_EQ(back->first_index, hb.first_index);
  EXPECT_EQ(back->traces, hb.traces);
  EXPECT_EQ(back->produced, hb.produced);
  EXPECT_EQ(back->wall_ms, hb.wall_ms);
  EXPECT_EQ(back->state, hb.state);

  // Rewrites go through tmp + rename, so no stale .tmp survives.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST_F(CampaignTelemetryTest, MissingOrGarbageHeartbeatIsNullopt) {
  EXPECT_FALSE(core::read_heartbeat(temp_path("hb_missing")).has_value());

  const std::string path = temp_path("hb_garbage");
  {
    std::ofstream out(path);
    out << "not a heartbeat at all\n";
  }
  EXPECT_FALSE(core::read_heartbeat(path).has_value());
  std::remove(path.c_str());
}

TEST_F(CampaignTelemetryTest, PublisherLifecycle) {
  const std::string path = temp_path("hb_publisher");
  std::remove(path.c_str());

  std::atomic<std::uint64_t> produced{0};
  core::worker_heartbeat base;
  base.pid = 7;
  base.first_index = 64;
  base.traces = 32;
  {
    core::heartbeat_publisher publisher(
        path, base, [&] { return produced.load(); },
        std::chrono::milliseconds(20));
    // The constructor writes synchronously before returning.
    auto hb = core::read_heartbeat(path);
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(hb->state, "starting");
    EXPECT_EQ(hb->first_index, 64u);

    produced.store(17);
    // Wait (bounded) for a periodic re-stamp carrying the new count.
    for (int i = 0; i < 100; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      hb = core::read_heartbeat(path);
      if (hb && hb->state == "running" && hb->produced == 17) {
        break;
      }
    }
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(hb->state, "running");
    EXPECT_EQ(hb->produced, 17u);

    publisher.finish("done");
    hb = core::read_heartbeat(path);
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(hb->state, "done");
  }
  // finish() already ran: the destructor must not overwrite "done".
  EXPECT_EQ(core::read_heartbeat(path)->state, "done");
  std::remove(path.c_str());
}

TEST_F(CampaignTelemetryTest, PublisherDestructorMarksFailed) {
  const std::string path = temp_path("hb_failed");
  std::remove(path.c_str());
  {
    core::heartbeat_publisher publisher(path, core::worker_heartbeat{},
                                        nullptr,
                                        std::chrono::milliseconds(20));
    // Leaving scope without finish() — the unwind path of a throwing
    // worker.
  }
  const auto hb = core::read_heartbeat(path);
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->state, "failed");
  std::remove(path.c_str());
}

// ------------------------------------------------------------ snapshot

TEST_F(CampaignTelemetryTest, ExportSnapshotFraming) {
  EXPECT_FALSE(core::export_snapshot("worker")) << "no sink => no export";

  const std::string sink = temp_path("snapshot.jsonl");
  std::remove(sink.c_str());
  telem::set_export_path(sink);

  static const telem::counter c{"test.export.count", "items", "test"};
  c.add(3);
  ASSERT_TRUE(core::export_snapshot("worker"));
  ASSERT_TRUE(core::export_snapshot("coordinator"));

  std::ifstream in(sink);
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(in, first));
  ASSERT_TRUE(std::getline(in, second));
  EXPECT_NE(first.find("\"event\":\"snapshot\""), std::string::npos);
  EXPECT_NE(first.find("\"role\":\"worker\""), std::string::npos);
  EXPECT_NE(first.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(first.find("\"test.export.count\":3"), std::string::npos);
  EXPECT_NE(second.find("\"role\":\"coordinator\""), std::string::npos);
  std::remove(sink.c_str());
}

// ------------------------------------------------------------ progress

TEST_F(CampaignTelemetryTest, ProgressMeterRatesAndEta) {
  core::progress_meter meter;
  meter.start(100, 10);
  EXPECT_EQ(meter.total(), 100u);
  EXPECT_EQ(meter.produced(), 10u);
  EXPECT_EQ(meter.mean_rate(), 0.0);
  EXPECT_TRUE(std::isinf(meter.eta_seconds()));

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  meter.observe(60);
  EXPECT_EQ(meter.produced(), 60u);
  EXPECT_GT(meter.mean_rate(), 0.0);
  EXPECT_GT(meter.recent_rate(), 0.0);
  EXPECT_GT(meter.eta_seconds(), 0.0);
  EXPECT_FALSE(std::isinf(meter.eta_seconds()));

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  meter.observe(100);
  EXPECT_EQ(meter.eta_seconds(), 0.0);
}

TEST_F(CampaignTelemetryTest, ProgressLineFormat) {
  core::progress_meter meter;
  meter.start(10000, 1234);
  const std::string stalled = meter.format_line(3);
  EXPECT_NE(stalled.find("1234/10000 traces"), std::string::npos) << stalled;
  EXPECT_NE(stalled.find("eta --:--"), std::string::npos) << stalled;
  EXPECT_NE(stalled.find("3 workers live"), std::string::npos) << stalled;

  const std::string solo = meter.format_line(1);
  EXPECT_NE(solo.find("1 worker live"), std::string::npos) << solo;
  EXPECT_EQ(solo.find("workers"), std::string::npos) << solo;
}

// --------------------------------------------------------- bit identity

/// mark(1); eor; add; lsl; mark(2); add — the trace_archive_test
/// program, reused so this pins the same pipeline end to end.
sim::program_image marked_program() {
  asmx::program_builder b;
  b.emit(isa::ins::mark(1));
  b.emit(isa::ins::eor(isa::reg::r1, isa::reg::r2, isa::reg::r3));
  b.emit(isa::ins::add(isa::reg::r4, isa::reg::r1, isa::reg::r2));
  b.emit(isa::ins::lsl(isa::reg::r5, isa::reg::r4, 2));
  b.emit(isa::ins::mark(2));
  b.emit(isa::ins::add(isa::reg::r6, isa::reg::r5, isa::reg::r4));
  return sim::program_image(b.build());
}

core::acquisition_campaign::setup_fn random_registers() {
  return [](std::size_t, util::xoshiro256& rng, sim::backend& pipe,
            std::vector<double>& labels) {
    const std::uint32_t a = rng.next_u32();
    const std::uint32_t b = rng.next_u32();
    pipe.state().set_reg(isa::reg::r2, a);
    pipe.state().set_reg(isa::reg::r3, b);
    labels.assign({static_cast<double>(a & 0xff),
                   static_cast<double>(b & 0xff)});
  };
}

class TelemetryBitIdentity
    : public ::testing::TestWithParam<sim::backend_kind> {
protected:
  void TearDown() override {
    telem::set_enabled(false);
    telem::reset_for_test();
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, TelemetryBitIdentity,
                         ::testing::Values(sim::backend_kind::inorder,
                                           sim::backend_kind::ooo),
                         [](const auto& info) {
                           return info.param == sim::backend_kind::ooo
                                      ? "ooo"
                                      : "inorder";
                         });

TEST_P(TelemetryBitIdentity, ArchiveBytesInvariantToTelemetry) {
  const sim::program_image image = marked_program();
  core::acquisition_config config;
  config.traces = 37;
  config.threads = 2;
  config.seed = 0xa5c1;
  config.averaging = 2;
  config.window = core::campaign_window{1, 2};
  config.backend = GetParam();
  config.uarch = GetParam() == sim::backend_kind::ooo ? sim::cortex_a7_ooo()
                                                      : sim::cortex_a7();
  core::archive_options options;
  options.chunk_traces = 8;

  const std::string off_path = temp_path("telem_off.trc");
  const std::string on_path = temp_path("telem_on.trc");
  std::remove(off_path.c_str());
  std::remove(on_path.c_str());

  telem::set_enabled(false);
  core::archive_acquisition(image, config, random_registers(), off_path,
                            options);

  // Full instrumentation live: spans timing, counters counting.
  telem::set_enabled(true);
  core::archive_acquisition(image, config, random_registers(), on_path,
                            options);

  EXPECT_EQ(file_bytes(on_path), file_bytes(off_path))
      << "telemetry must be write-only with respect to results";

  // And the campaign did flow through the instrumented paths.
  std::uint64_t archived = 0;
  for (const auto& s : telem::snapshot()) {
    if (s.info.name == "archive.records") {
      archived = s.count;
    }
  }
  EXPECT_GE(archived, static_cast<std::uint64_t>(config.traces));

  std::remove(off_path.c_str());
  std::remove(on_path.c_str());
}

// The speculation counters are counted per surviving lane, so a batched
// speculating campaign's totals equal its per-trace run's: first with no
// lane ejected (one fixed plaintext), then with lanes ejected by the
// branchy victim's secret-dependent branches and redone per trace, which
// campaign.lane_fallbacks counts.
TEST_F(CampaignTelemetryTest, BatchedSpeculationCountersMatchPerTrace) {
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_branchy_program();
  const crypto::aes_round_keys rk = crypto::expand_key(
      {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15,
       0x88, 0x09, 0xcf, 0x4f, 0x3c});
  const telem::counter mispredicts{"sim.ooo.mispredicts", "branches", "sim"};
  const telem::counter wrong_uops{"sim.ooo.wrong_path_uops", "uops", "sim"};
  const telem::counter fallbacks{"campaign.lane_fallbacks", "traces",
                                 "campaign"};
  const telem::counter lane_cycles{"sim.batch.active_lane_cycles",
                                   "lane-cycles", "sim"};
  struct totals {
    std::uint64_t mispredicts = 0;
    std::uint64_t wrong_uops = 0;
    std::uint64_t fallbacks = 0;
    bool batched = false;
  };
  const auto run = [&](bool random_plaintexts, int lanes) {
    core::acquisition_config config;
    config.traces = 16;
    config.threads = 1;
    config.seed = 0x5bec;
    config.synthesize = false;
    config.backend = sim::backend_kind::ooo;
    config.uarch = sim::cortex_a7_ooo_spec(
        sim::speculation_config{.predictor = sim::predictor_kind::bimodal});
    config.sim_batch_lanes = lanes;
    core::acquisition_campaign campaign(sim::program_image(layout.prog),
                                        config);
    campaign.set_setup([&](std::size_t, util::xoshiro256& rng,
                           sim::backend& core, std::vector<double>&) {
      crypto::aes_block pt{};
      if (random_plaintexts) {
        for (std::uint8_t& b : pt) {
          b = rng.next_u8();
        }
      }
      crypto::install_aes_inputs(core.memory(), layout, rk, pt);
    });
    const totals before{mispredicts.value(), wrong_uops.value(),
                        fallbacks.value()};
    const std::uint64_t cycles_before = lane_cycles.value();
    campaign.run([](core::acquisition_record&&) {});
    return totals{mispredicts.value() - before.mispredicts,
                  wrong_uops.value() - before.wrong_uops,
                  fallbacks.value() - before.fallbacks,
                  lane_cycles.value() > cycles_before};
  };

  const totals fixed_per_trace = run(false, 0);
  const totals fixed_batched = run(false, 8);
  EXPECT_GT(fixed_per_trace.mispredicts, 0u);
  EXPECT_EQ(fixed_batched.fallbacks, 0u);
  EXPECT_EQ(fixed_batched.mispredicts, fixed_per_trace.mispredicts);
  EXPECT_EQ(fixed_batched.wrong_uops, fixed_per_trace.wrong_uops);

  const totals random_per_trace = run(true, 0);
  const totals random_batched = run(true, 8);
  // USCA_SIM_BATCH / USCA_OOO_REFERENCE can force the per-trace path or
  // single-lane batches, whose one lane is the leader and never ejects.
  if (random_batched.batched && sim::resolve_sim_batch_lanes(8) > 1) {
    EXPECT_GT(random_batched.fallbacks, 0u);
  }
  EXPECT_EQ(random_batched.mispredicts, random_per_trace.mispredicts);
  EXPECT_EQ(random_batched.wrong_uops, random_per_trace.wrong_uops);
}

// The cycle counters are counted per surviving lane as well, so on both
// backends a batched campaign's totals equal its per-trace run's: on the
// table-based AES, whose lanes survive their batch, and on the branchy
// one, whose lanes are ejected and redone per trace.
TEST_F(CampaignTelemetryTest, BatchedCycleCountersMatchPerTrace) {
  const crypto::aes_round_keys rk = crypto::expand_key(
      {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15,
       0x88, 0x09, 0xcf, 0x4f, 0x3c});
  const telem::counter inorder_cycles{"sim.inorder.cycles", "cycles", "sim"};
  const telem::counter ooo_cycles{"sim.ooo.cycles", "cycles", "sim"};
  const telem::counter idle_skipped{"sim.ooo.idle_skipped", "cycles", "sim"};
  struct totals {
    std::uint64_t inorder_cycles = 0;
    std::uint64_t ooo_cycles = 0;
    std::uint64_t idle_skipped = 0;
  };
  const auto run = [&](const crypto::aes_program_layout& layout,
                       sim::backend_kind backend, int lanes) {
    core::acquisition_config config;
    config.traces = 16;
    config.threads = 1;
    config.seed = 0xc7c1e;
    config.synthesize = false;
    config.backend = backend;
    config.uarch = backend == sim::backend_kind::ooo
                       ? sim::cortex_a7_ooo_spec(sim::speculation_config{
                             .predictor = sim::predictor_kind::bimodal})
                       : sim::cortex_a7();
    config.sim_batch_lanes = lanes;
    core::acquisition_campaign campaign(sim::program_image(layout.prog),
                                        config);
    campaign.set_setup([&](std::size_t, util::xoshiro256& rng,
                           sim::backend& core, std::vector<double>&) {
      crypto::aes_block pt{};
      for (std::uint8_t& b : pt) {
        b = rng.next_u8();
      }
      crypto::install_aes_inputs(core.memory(), layout, rk, pt);
    });
    const totals before{inorder_cycles.value(), ooo_cycles.value(),
                        idle_skipped.value()};
    campaign.run([](core::acquisition_record&&) {});
    return totals{inorder_cycles.value() - before.inorder_cycles,
                  ooo_cycles.value() - before.ooo_cycles,
                  idle_skipped.value() - before.idle_skipped};
  };

  for (const crypto::aes_program_layout& layout :
       {crypto::generate_aes128_program(),
        crypto::generate_aes128_branchy_program()}) {
    for (const sim::backend_kind backend :
         {sim::backend_kind::inorder, sim::backend_kind::ooo}) {
      SCOPED_TRACE(sim::backend_kind_name(backend));
      const totals per_trace = run(layout, backend, 0);
      const totals batched = run(layout, backend, 8);
      EXPECT_GT(per_trace.inorder_cycles + per_trace.ooo_cycles, 0u);
      EXPECT_EQ(batched.inorder_cycles, per_trace.inorder_cycles);
      EXPECT_EQ(batched.ooo_cycles, per_trace.ooo_cycles);
      EXPECT_EQ(batched.idle_skipped, per_trace.idle_skipped);
    }
  }
}

} // namespace
} // namespace usca
