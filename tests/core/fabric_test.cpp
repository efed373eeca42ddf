// Tests for the campaign fabric: lease split + journaled manifest
// round-trips, failpoint-injected worker deaths retried to convergence,
// mid-lease kills resumed from the partial shard, done-shard bit rot
// re-dispatched, coordinator crash-resume from the manifest, config
// binding enforcement, and — the acceptance property — a fabric run
// with injected failures merging byte-identical to one uninterrupted
// single-process archive.  The process runner is exercised directly
// with real subprocesses (exit codes, SIGKILL cancel).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/campaign_fabric.h"
#include "core/trace_archive.h"
#include "power/trace_store_reader.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace usca {
namespace {

namespace fs = std::filesystem;

/// mark(1); eor; add; lsl; mark(2); add — the archive tests' program.
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

core::acquisition_config base_config() {
  core::acquisition_config config;
  config.traces = 37;
  config.threads = 1;
  config.seed = 0xfabf;
  config.averaging = 2;
  config.window = core::campaign_window{1, 2};
  config.backend = sim::backend_kind::inorder;
  config.uarch = sim::cortex_a7();
  return config;
}

core::archive_options small_chunks() {
  core::archive_options options;
  options.chunk_traces = 8;
  return options;
}

/// Archives records [first, first + count) of the base campaign into
/// `path` — the worker body shared by every fabric test.
void archive_range(const sim::program_image& image, std::size_t first,
                   std::size_t count, const std::string& path) {
  core::acquisition_config sub = base_config();
  sub.first_index = first;
  sub.traces = count;
  core::archive_acquisition(image, sub, random_registers(), path,
                            small_chunks());
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Fresh working directory + fabric config bound to the base campaign:
/// 37 records in 5 leases of <=8, fast backoff for test speed.
struct fabric_fixture {
  explicit fabric_fixture(const char* name)
      : dir(std::string("/tmp/usca_fabric_test_") + name) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    config.manifest_path = dir + "/manifest";
    config.shard_dir = dir + "/shards";
    config.traces = 37;
    config.lease_traces = 8;
    config.seed = base_config().seed;
    config.config_hash = core::salted_config_hash(
        core::acquisition_config_hash(base_config()), 0);
    config.workers = 2;
    config.max_attempts = 4;
    config.backoff_base = std::chrono::milliseconds(1);
    config.backoff_cap = std::chrono::milliseconds(4);
    config.poll_interval = std::chrono::milliseconds(1);
  }
  ~fabric_fixture() { fs::remove_all(dir); }

  std::string dir;
  core::fabric_config config;
};

class FabricTest : public ::testing::Test {
protected:
  void TearDown() override { util::failpoint_clear(); }

  core::thread_worker_runner archive_runner() {
    return core::thread_worker_runner(
        [this](const core::fabric_lease& lease) {
          archive_range(image_, lease.first_index, lease.traces,
                        lease.shard_path);
        });
  }

  std::string baseline(const std::string& dir) {
    const std::string path = dir + "/baseline.trc";
    archive_range(image_, 0, 37, path);
    return path;
  }

  sim::program_image image_ = marked_program();
};

TEST_F(FabricTest, SplitsJournalAndMergeByteIdentical) {
  fabric_fixture fx("clean");
  core::campaign_fabric fabric(fx.config);
  ASSERT_EQ(fabric.leases().size(), 5u); // 8+8+8+8+5 = 37
  EXPECT_EQ(fabric.leases()[4].first_index, 32u);
  EXPECT_EQ(fabric.leases()[4].traces, 5u);
  EXPECT_TRUE(fs::exists(fx.config.manifest_path)); // journaled on create

  core::thread_worker_runner runner = archive_runner();
  const core::fabric_report report = fabric.run(runner);
  EXPECT_EQ(report.leases, 5u);
  EXPECT_EQ(report.completed, 5u);
  EXPECT_EQ(report.worker_failures, 0u);

  const std::string merged = fx.dir + "/merged.trc";
  EXPECT_EQ(fabric.merge(merged), 37u);
  EXPECT_EQ(file_bytes(merged), file_bytes(baseline(fx.dir)));
}

TEST_F(FabricTest, InjectedWorkerDeathsAreRetriedToConvergence) {
  fabric_fixture fx("deaths");
  // Kill the 2nd and 4th worker launches at entry (the in-process
  // stand-in for a crashed worker process).
  util::failpoint_configure("fabric_worker:error@2;fabric_worker:error@4");

  core::campaign_fabric fabric(fx.config);
  core::thread_worker_runner runner = archive_runner();
  const core::fabric_report report = fabric.run(runner);
  EXPECT_EQ(report.completed, 5u);
  EXPECT_EQ(report.worker_failures, 2u);
  EXPECT_EQ(report.relaunches, 2u);
  EXPECT_GE(util::failpoint_hits("fabric_worker"), 7u);

  const std::string merged = fx.dir + "/merged.trc";
  EXPECT_EQ(fabric.merge(merged), 37u);
  EXPECT_EQ(file_bytes(merged), file_bytes(baseline(fx.dir)));
}

TEST_F(FabricTest, MidLeaseKillResumesThePartialShard) {
  fabric_fixture fx("midkill");
  core::campaign_fabric fabric(fx.config);
  // First attempt of lease 2 archives half its range and dies; the
  // re-issued attempt must RESUME the shard, not restart it.
  bool killed = false;
  core::thread_worker_runner runner(
      [this, &killed](const core::fabric_lease& lease) {
        if (lease.id == 2 && lease.attempts == 1) {
          killed = true;
          archive_range(image_, lease.first_index, lease.traces / 2,
                        lease.shard_path);
          throw util::analysis_error("injected mid-lease kill");
        }
        archive_range(image_, lease.first_index, lease.traces,
                      lease.shard_path);
      });
  const core::fabric_report report = fabric.run(runner);
  EXPECT_TRUE(killed);
  EXPECT_EQ(report.completed, 5u);
  EXPECT_EQ(report.worker_failures, 1u);

  const std::string merged = fx.dir + "/merged.trc";
  EXPECT_EQ(fabric.merge(merged), 37u);
  EXPECT_EQ(file_bytes(merged), file_bytes(baseline(fx.dir)));
}

TEST_F(FabricTest, CoordinatorCrashResumesFromTheManifest) {
  fabric_fixture fx("resume");
  // "First coordinator": lease 1 fails every attempt, exhausting its
  // budget — run() throws with everything else journaled as done.
  {
    core::fabric_config config = fx.config;
    config.max_attempts = 2;
    core::campaign_fabric fabric(config);
    core::thread_worker_runner runner(
        [this](const core::fabric_lease& lease) {
          if (lease.id == 1) {
            throw util::analysis_error("injected persistent failure");
          }
          archive_range(image_, lease.first_index, lease.traces,
                        lease.shard_path);
        });
    EXPECT_THROW(fabric.run(runner), util::analysis_error);
  }

  // "Second coordinator": reloads the manifest, revalidates the done
  // shards, and re-runs only what the crash left unfinished.  (How many
  // leases were journaled done before the abort depends on scheduling —
  // the first coordinator cancels its in-flight workers when it throws
  // — but nothing done is ever re-launched.)
  core::campaign_fabric fabric(fx.config);
  std::size_t launched = 0;
  core::thread_worker_runner runner(
      [this, &launched](const core::fabric_lease& lease) {
        ++launched;
        archive_range(image_, lease.first_index, lease.traces,
                      lease.shard_path);
      });
  const core::fabric_report report = fabric.run(runner);
  EXPECT_EQ(report.already_done + report.completed, 5u);
  EXPECT_GE(report.completed, 1u); // lease 1 at minimum
  EXPECT_EQ(launched, report.completed);

  const std::string merged = fx.dir + "/merged.trc";
  EXPECT_EQ(fabric.merge(merged), 37u);
  EXPECT_EQ(file_bytes(merged), file_bytes(baseline(fx.dir)));
}

TEST_F(FabricTest, RottenDoneShardIsRedispatched) {
  fabric_fixture fx("rot");
  {
    core::campaign_fabric fabric(fx.config);
    core::thread_worker_runner runner = archive_runner();
    fabric.run(runner);
  }
  // Bit rot between coordinator runs: flip a payload byte of shard 3.
  {
    std::fstream f(fx.config.shard_dir + "/shard-000003.trc",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(200);
    f.write("\xff", 1);
  }
  core::campaign_fabric fabric(fx.config);
  core::thread_worker_runner runner = archive_runner();
  const core::fabric_report report = fabric.run(runner);
  EXPECT_EQ(report.invalid_shards, 1u);
  EXPECT_EQ(report.already_done, 4u);
  EXPECT_EQ(report.completed, 1u);

  const std::string merged = fx.dir + "/merged.trc";
  EXPECT_EQ(fabric.merge(merged), 37u);
  EXPECT_EQ(file_bytes(merged), file_bytes(baseline(fx.dir)));
}

TEST_F(FabricTest, ManifestConfigBindingIsEnforced) {
  fabric_fixture fx("binding");
  { core::campaign_fabric fabric(fx.config); } // journals the manifest

  core::fabric_config other = fx.config;
  other.config_hash ^= 1;
  EXPECT_THROW(core::campaign_fabric{other}, util::analysis_error);

  core::fabric_config reseeded = fx.config;
  reseeded.seed ^= 1;
  EXPECT_THROW(core::campaign_fabric{reseeded}, util::analysis_error);
}

// A manifest stripped of its binding lines binds to nothing, so it must
// be refused at load — not accepted for any campaign, to dead-end later
// when the done shards fail revalidation against the new one.
TEST_F(FabricTest, ManifestMissingBindingLinesIsRefusedAtLoad) {
  fabric_fixture fx("unbound");
  {
    core::campaign_fabric fabric(fx.config);
    core::thread_worker_runner runner = archive_runner();
    fabric.run(runner); // a finished run's kept manifest
  }
  std::string kept;
  {
    std::ifstream in(fx.config.manifest_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("seed ", 0) != 0 && line.rfind("config_hash ", 0) != 0) {
        kept += line + "\n";
      }
    }
  }
  std::ofstream(fx.config.manifest_path, std::ios::trunc) << kept;

  core::fabric_config reseeded = fx.config;
  reseeded.seed = 7;
  for (const core::fabric_config& config : {fx.config, reseeded}) {
    try {
      core::campaign_fabric fabric(config);
      FAIL() << "a manifest without its binding lines must not load";
    } catch (const util::analysis_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("missing 'config_hash' line"), std::string::npos)
          << what;
    }
  }
  EXPECT_THROW(core::parse_manifest(fx.config.manifest_path),
               util::analysis_error);
}

TEST_F(FabricTest, ExhaustedLeaseThrowsButKeepsTheJournal) {
  fabric_fixture fx("exhausted");
  core::fabric_config config = fx.config;
  config.max_attempts = 3;
  core::campaign_fabric fabric(config);
  std::size_t attempts = 0;
  core::thread_worker_runner runner(
      [&attempts](const core::fabric_lease&) {
        ++attempts;
        throw util::analysis_error("always fails");
      });
  try {
    fabric.run(runner);
    FAIL() << "exhausting a lease must throw";
  } catch (const util::analysis_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("failed after 3 attempts"), std::string::npos)
        << what;
    EXPECT_NE(what.find(config.manifest_path), std::string::npos) << what;
  }
  EXPECT_TRUE(fs::exists(config.manifest_path));
}

TEST_F(FabricTest, MergeRefusesNonContiguousShards) {
  fabric_fixture fx("gaps");
  const std::string a = fx.dir + "/a.trc";
  const std::string c = fx.dir + "/c.trc";
  archive_range(image_, 0, 8, a);
  archive_range(image_, 16, 8, c); // records 8..16 missing
  EXPECT_THROW(core::merge_stores({a, c}, fx.dir + "/out.trc"),
               util::analysis_error);
  // In order and gapless, the same shards merge fine.
  const std::string b = fx.dir + "/b.trc";
  archive_range(image_, 8, 8, b);
  EXPECT_EQ(core::merge_stores({a, b, c}, fx.dir + "/out.trc"), 24u);
  const power::trace_store_reader reader(fx.dir + "/out.trc");
  EXPECT_EQ(reader.traces(), 24u);
}

TEST(ProcessRunner, ReportsExitStatusAndKillsOnCancel) {
  std::vector<std::string> argv;
  core::process_worker_runner runner(
      [&argv](const core::fabric_lease&) { return argv; });
  core::fabric_lease lease;

  const auto wait_done = [&runner](std::size_t handle) {
    core::worker_status status = core::worker_status::running;
    for (int i = 0; i < 2000 && status == core::worker_status::running;
         ++i) {
      status = runner.poll(handle);
      if (status == core::worker_status::running) {
        usleep(5'000);
      }
    }
    return status;
  };

  argv = {"/bin/true"};
  EXPECT_EQ(wait_done(runner.start(lease)), core::worker_status::succeeded);
  argv = {"/bin/false"};
  EXPECT_EQ(wait_done(runner.start(lease)), core::worker_status::failed);
  argv = {"/does/not/exist"};
  EXPECT_EQ(wait_done(runner.start(lease)), core::worker_status::failed);

  argv = {"/bin/sleep", "60"};
  const std::size_t straggler = runner.start(lease);
  EXPECT_EQ(runner.poll(straggler), core::worker_status::running);
  runner.cancel(straggler); // SIGKILL + reap; must not block for 60s
  EXPECT_EQ(runner.poll(straggler), core::worker_status::failed);
}

} // namespace
} // namespace usca
