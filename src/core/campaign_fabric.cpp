#include "core/campaign_fabric.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "power/trace_io.h"
#include "power/trace_store_reader.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/telemetry.h"

namespace usca::core {

namespace {

using clock_type = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& what) {
  throw util::analysis_error(what);
}

std::string shard_name(const std::string& dir, std::size_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%06zu.trc", id);
  return dir + "/" + buf;
}

/// write(2) until done; throws on any failure (manifest durability is
/// the whole point of the journal).
void full_write(int fd, const char* data, std::size_t size,
                const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int err = errno;
      ::close(fd);
      fail("fabric manifest '" + path +
           "': write failed: " + std::strerror(err));
    }
    done += static_cast<std::size_t>(n);
  }
}

} // namespace

const char* lease_state_name(lease_state state) noexcept {
  switch (state) {
  case lease_state::pending:
    return "pending";
  case lease_state::leased:
    return "leased";
  case lease_state::done:
    return "done";
  }
  return "?";
}

// ------------------------------------------------------ thread runner

struct thread_worker_runner::job {
  std::thread thread;
  /// 0 = running, 1 = succeeded, 2 = failed; written once by the worker
  /// thread as its last act.
  std::atomic<int> state{0};
};

thread_worker_runner::thread_worker_runner(worker_fn fn)
    : fn_(std::move(fn)) {}

thread_worker_runner::~thread_worker_runner() {
  for (const std::unique_ptr<job>& j : jobs_) {
    if (j->thread.joinable()) {
      j->thread.join();
    }
  }
}

std::size_t thread_worker_runner::start(const fabric_lease& lease) {
  jobs_.push_back(std::make_unique<job>());
  job* j = jobs_.back().get();
  j->thread = std::thread([this, j, lease]() {
    try {
      util::failpoint("fabric_worker");
      fn_(lease);
      j->state.store(1, std::memory_order_release);
    } catch (...) {
      j->state.store(2, std::memory_order_release);
    }
  });
  return jobs_.size() - 1;
}

worker_status thread_worker_runner::poll(std::size_t handle) {
  job& j = *jobs_.at(handle);
  const int state = j.state.load(std::memory_order_acquire);
  if (state == 0) {
    return worker_status::running;
  }
  if (j.thread.joinable()) {
    j.thread.join();
  }
  return state == 1 ? worker_status::succeeded : worker_status::failed;
}

void thread_worker_runner::cancel(std::size_t handle) {
  // std::thread cannot be killed; waiting it out is the best a
  // cooperative runner can do (see header).
  job& j = *jobs_.at(handle);
  if (j.thread.joinable()) {
    j.thread.join();
  }
}

// ----------------------------------------------------- process runner

process_worker_runner::process_worker_runner(argv_fn argv_for)
    : argv_for_(std::move(argv_for)) {}

std::size_t process_worker_runner::start(const fabric_lease& lease) {
  std::vector<std::string> argv = argv_for_(lease);
  if (argv.empty()) {
    fail("fabric worker launch: empty argv for lease " +
         std::to_string(lease.id));
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (std::string& arg : argv) {
    cargv.push_back(arg.data());
  }
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    fail(std::string("fabric worker launch: fork failed: ") +
         std::strerror(errno));
  }
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    ::_exit(127); // exec failed; parent sees a failed attempt
  }
  jobs_.push_back({static_cast<long>(pid), worker_status::running});
  return jobs_.size() - 1;
}

worker_status process_worker_runner::poll(std::size_t handle) {
  job& j = jobs_.at(handle);
  if (j.status != worker_status::running) {
    return j.status;
  }
  int status = 0;
  const pid_t r = ::waitpid(static_cast<pid_t>(j.pid), &status, WNOHANG);
  if (r == 0) {
    return worker_status::running;
  }
  j.status = (r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0)
                 ? worker_status::succeeded
                 : worker_status::failed;
  return j.status;
}

void process_worker_runner::cancel(std::size_t handle) {
  job& j = jobs_.at(handle);
  if (j.status != worker_status::running) {
    return;
  }
  ::kill(static_cast<pid_t>(j.pid), SIGKILL);
  int status = 0;
  ::waitpid(static_cast<pid_t>(j.pid), &status, 0);
  j.status = worker_status::failed;
}

// -------------------------------------------------------- coordinator

campaign_fabric::campaign_fabric(fabric_config config)
    : config_(std::move(config)) {
  if (config_.manifest_path.empty() || config_.shard_dir.empty()) {
    fail("campaign_fabric: manifest_path and shard_dir are required");
  }
  if (config_.traces == 0 || config_.lease_traces == 0) {
    fail("campaign_fabric: traces and lease_traces must be nonzero");
  }
  if (config_.workers == 0 || config_.max_attempts == 0) {
    fail("campaign_fabric: workers and max_attempts must be nonzero");
  }
  ::mkdir(config_.shard_dir.c_str(), 0755); // EEXIST is the common case

  if (!load_manifest()) {
    const std::size_t count =
        (config_.traces + config_.lease_traces - 1) / config_.lease_traces;
    leases_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      fabric_lease lease;
      lease.id = i;
      lease.first_index = config_.first_index + i * config_.lease_traces;
      lease.traces = std::min(config_.lease_traces,
                              config_.traces - i * config_.lease_traces);
      lease.shard_path = shard_name(config_.shard_dir, i);
      leases_.push_back(std::move(lease));
    }
    save_manifest();
  }
}

fabric_manifest parse_manifest(const std::string& path) {
  auto bad = [&path](const std::string& what) {
    fail("fabric manifest '" + path + "': " + what);
  };
  std::ifstream in(path);
  if (!in.is_open()) {
    bad("cannot open");
  }
  std::string line;
  if (!std::getline(in, line) || line != "usca-fabric-manifest 1") {
    bad("bad magic line (not a fabric manifest, or a newer version)");
  }
  // The lines binding a manifest to its campaign: each must appear
  // exactly once, or the manifest could load for any campaign.
  static constexpr std::array<std::string_view, 5> binding_keys{
      "config_hash", "seed", "first_index", "traces", "lease_traces"};
  std::array<bool, binding_keys.size()> seen{};
  fabric_manifest manifest;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream iss(line);
    std::string key;
    iss >> key;
    const auto binding =
        std::find(binding_keys.begin(), binding_keys.end(), key);
    if (binding != binding_keys.end()) {
      bool& once = seen[static_cast<std::size_t>(binding -
                                                 binding_keys.begin())];
      if (once) {
        bad("duplicate '" + key + "' line");
      }
      once = true;
      std::uint64_t value = 0;
      if (!(iss >> value)) {
        bad("malformed '" + key + "' line");
      }
      manifest.config.emplace_back(key, value);
    } else if (key == "lease") {
      fabric_lease lease;
      std::string state;
      if (!(iss >> lease.id >> lease.first_index >> lease.traces >>
            lease.attempts >> state)) {
        bad("malformed lease line: '" + line + "'");
      }
      std::getline(iss, lease.shard_path);
      const std::size_t start = lease.shard_path.find_first_not_of(' ');
      lease.shard_path = start == std::string::npos
                             ? std::string()
                             : lease.shard_path.substr(start);
      if (lease.shard_path.empty()) {
        bad("lease " + std::to_string(lease.id) + " has no shard path");
      }
      if (state == "pending") {
        lease.state = lease_state::pending;
      } else if (state == "leased") {
        lease.state = lease_state::leased;
      } else if (state == "done") {
        lease.state = lease_state::done;
      } else {
        bad("lease " + std::to_string(lease.id) + " has unknown state '" +
            state + "'");
      }
      manifest.leases.push_back(std::move(lease));
    } else {
      bad("unknown line: '" + line + "'");
    }
  }
  for (std::size_t k = 0; k < binding_keys.size(); ++k) {
    if (!seen[k]) {
      bad("missing '" + std::string(binding_keys[k]) + "' line");
    }
  }
  return manifest;
}

bool campaign_fabric::load_manifest() {
  const std::string& path = config_.manifest_path;
  if (::access(path.c_str(), F_OK) != 0) {
    return false;
  }
  auto bad = [&path](const std::string& what) {
    fail("fabric manifest '" + path + "': " + what);
  };
  fabric_manifest manifest = parse_manifest(path);

  for (const auto& [key, stored] : manifest.config) {
    const std::uint64_t expected =
        key == "config_hash"   ? config_.config_hash
        : key == "seed"        ? config_.seed
        : key == "first_index" ? config_.first_index
        : key == "traces"      ? config_.traces
                               : config_.lease_traces;
    if (stored != expected) {
      bad("was written for " + key + " " + std::to_string(stored) +
          ", this campaign has " + std::to_string(expected) +
          " (refusing to mix trace populations)");
    }
  }

  // The lease split is a pure function of (first_index, traces,
  // lease_traces); a manifest whose split disagrees was tampered with or
  // truncated mid-rewrite (which the atomic rename should prevent).
  std::vector<fabric_lease>& leases = manifest.leases;
  const std::size_t count =
      (config_.traces + config_.lease_traces - 1) / config_.lease_traces;
  if (leases.size() != count) {
    bad("has " + std::to_string(leases.size()) + " leases, campaign needs " +
        std::to_string(count));
  }
  for (std::size_t i = 0; i < count; ++i) {
    fabric_lease& lease = leases[i];
    const std::size_t first = config_.first_index + i * config_.lease_traces;
    const std::size_t traces = std::min(
        config_.lease_traces, config_.traces - i * config_.lease_traces);
    if (lease.id != i || lease.first_index != first ||
        lease.traces != traces) {
      bad("lease " + std::to_string(i) + " does not match the campaign split");
    }
    if (lease.state == lease_state::leased) {
      // The previous coordinator died with the worker in flight — the
      // shard resumes, so just re-issue.
      lease.state = lease_state::pending;
    }
  }
  leases_ = std::move(leases);
  return true;
}

void campaign_fabric::save_manifest() const {
  std::string body = "usca-fabric-manifest 1\n";
  body += "config_hash " + std::to_string(config_.config_hash) + "\n";
  body += "seed " + std::to_string(config_.seed) + "\n";
  body += "first_index " + std::to_string(config_.first_index) + "\n";
  body += "traces " + std::to_string(config_.traces) + "\n";
  body += "lease_traces " + std::to_string(config_.lease_traces) + "\n";
  for (const fabric_lease& lease : leases_) {
    body += "lease " + std::to_string(lease.id) + " " +
            std::to_string(lease.first_index) + " " +
            std::to_string(lease.traces) + " " +
            std::to_string(lease.attempts) + " " +
            lease_state_name(lease.state) + " " + lease.shard_path + "\n";
  }

  // tmp + fsync + rename: a reader (or a resumed coordinator) sees
  // either the old manifest or the new one, never a torn rewrite.
  const std::string tmp = config_.manifest_path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    fail("fabric manifest '" + tmp +
         "': open failed: " + std::strerror(errno));
  }
  full_write(fd, body.data(), body.size(), tmp);
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    fail("fabric manifest '" + tmp +
         "': fsync failed: " + std::strerror(err));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), config_.manifest_path.c_str()) != 0) {
    fail("fabric manifest '" + config_.manifest_path +
         "': rename failed: " + std::strerror(errno));
  }
}

void campaign_fabric::validate_shard(const fabric_lease& lease) const {
  auto bad = [&lease](const std::string& what) {
    fail("fabric shard '" + lease.shard_path + "' (lease " +
         std::to_string(lease.id) + "): " + what);
  };
  // Strict open = full CRC walk; any structural damage throws here with
  // the reader's own path/offset/chunk/fault-class context.
  const power::trace_store_reader reader(lease.shard_path);
  const power::trace_store_descriptor& desc = reader.descriptor();
  if (desc.seed != config_.seed) {
    bad("seed " + std::to_string(desc.seed) + ", campaign has " +
        std::to_string(config_.seed));
  }
  if (desc.config_hash != config_.config_hash) {
    bad("config hash " + std::to_string(desc.config_hash) +
        ", campaign has " + std::to_string(config_.config_hash));
  }
  if (reader.first_index() != lease.first_index) {
    bad("first index " + std::to_string(reader.first_index()) +
        ", lease covers " + std::to_string(lease.first_index));
  }
  if (reader.traces() != lease.traces) {
    bad("holds " + std::to_string(reader.traces()) + " records, lease needs " +
        std::to_string(lease.traces));
  }
}

namespace {

/// Coordinator-side lease lifecycle counters.  Grouped in one struct so
/// run() increments read as one vocabulary; all registered on first
/// run() in the process.
struct fabric_metrics {
  telem::counter issued{"fabric.leases_issued", "leases", "fabric"};
  telem::counter done{"fabric.leases_done", "leases", "fabric"};
  telem::counter reissues{"fabric.reissues", "leases", "fabric"};
  telem::counter deadline_kills{"fabric.deadline_kills", "workers", "fabric"};
  telem::counter invalid_shards{"fabric.invalid_shards", "shards", "fabric"};
  telem::counter worker_failures{"fabric.worker_failures", "workers",
                                 "fabric"};
  static const fabric_metrics& get() {
    static const fabric_metrics m;
    return m;
  }
};

} // namespace

fabric_report campaign_fabric::run(worker_runner& runner) {
  const fabric_metrics& metrics = fabric_metrics::get();
  fabric_report report;
  report.leases = leases_.size();

  // Revalidate work inherited from a previous run: a `done` shard that
  // rotted on disk between runs goes back to pending with a fresh
  // attempt budget (the corruption is not the worker's failure).
  bool dirty = false;
  for (fabric_lease& lease : leases_) {
    if (lease.state != lease_state::done) {
      continue;
    }
    try {
      validate_shard(lease);
      ++report.already_done;
    } catch (const util::analysis_error&) {
      ++report.invalid_shards;
      metrics.invalid_shards.add();
      lease.state = lease_state::pending;
      lease.attempts = 0;
      dirty = true;
    }
  }
  if (dirty) {
    save_manifest();
  }

  struct active {
    std::size_t handle = 0;
    std::size_t lease = 0;
    clock_type::time_point started;
  };
  std::vector<active> live;
  std::vector<clock_type::time_point> eligible(leases_.size(),
                                               clock_type::now());

  // Observational progress reporting: a point-in-time lease census on a
  // fixed cadence, plus a final `finished` invocation.  Strictly
  // read-only — a campaign runs identically with no callback installed.
  clock_type::time_point last_progress = clock_type::now();
  const auto report_progress = [&](bool finished) {
    if (!config_.on_progress) {
      return;
    }
    fabric_progress progress;
    progress.leases = &leases_;
    progress.total_traces = config_.traces;
    for (const fabric_lease& lease : leases_) {
      if (lease.state == lease_state::done) {
        ++progress.done_leases;
        progress.done_traces += lease.traces;
      }
    }
    progress.live_workers = live.size();
    progress.finished = finished;
    config_.on_progress(progress);
  };

  // Marks the attempt failed and either schedules the re-issue (capped
  // exponential backoff) or gives up — cancelling the other in-flight
  // workers first, so a throwing coordinator never leaks processes.
  auto fail_lease = [&](fabric_lease& lease) {
    lease.state = lease_state::pending;
    if (lease.attempts >= config_.max_attempts) {
      save_manifest();
      for (const active& other : live) {
        runner.cancel(other.handle);
      }
      fail("fabric lease " + std::to_string(lease.id) + " (records " +
           std::to_string(lease.first_index) + ".." +
           std::to_string(lease.first_index + lease.traces) +
           ") failed after " + std::to_string(lease.attempts) +
           " attempts; completed work is journaled in '" +
           config_.manifest_path + "', rerun to retry");
    }
    const unsigned shift = std::min(lease.attempts - 1, 20u);
    std::chrono::milliseconds delay = config_.backoff_base * (1u << shift);
    delay = std::min(delay, config_.backoff_cap);
    eligible[lease.id] = clock_type::now() + delay;
    save_manifest();
  };

  while (true) {
    // Launch pending leases (in id order) up to the concurrency cap.
    for (fabric_lease& lease : leases_) {
      if (live.size() >= config_.workers) {
        break;
      }
      if (lease.state != lease_state::pending ||
          clock_type::now() < eligible[lease.id]) {
        continue;
      }
      if (lease.attempts > 0) {
        ++report.relaunches;
        metrics.reissues.add();
      }
      ++lease.attempts;
      lease.state = lease_state::leased;
      save_manifest();
      metrics.issued.add();
      try {
        const std::size_t handle = runner.start(lease);
        live.push_back({handle, lease.id, clock_type::now()});
      } catch (const util::analysis_error&) {
        ++report.worker_failures;
        metrics.worker_failures.add();
        fail_lease(lease);
      }
    }

    // Poll the in-flight workers; swap-pop finished ones.
    bool progressed = false;
    for (std::size_t i = 0; i < live.size();) {
      const active entry = live[i];
      fabric_lease& lease = leases_[entry.lease];
      const worker_status status = runner.poll(entry.handle);
      if (status == worker_status::running) {
        const bool late =
            config_.lease_deadline.count() > 0 &&
            clock_type::now() - entry.started > config_.lease_deadline;
        if (!late) {
          ++i;
          continue;
        }
        runner.cancel(entry.handle);
        ++report.deadline_kills;
        metrics.deadline_kills.add();
      }
      live[i] = live.back();
      live.pop_back();
      progressed = true;
      if (status != worker_status::succeeded) {
        if (status == worker_status::failed) {
          ++report.worker_failures;
          metrics.worker_failures.add();
        }
        fail_lease(lease);
        continue;
      }
      try {
        validate_shard(lease);
        lease.state = lease_state::done;
        ++report.completed;
        metrics.done.add();
        save_manifest();
      } catch (const util::analysis_error&) {
        // Worker claimed success but the shard does not check out.
        ++report.invalid_shards;
        metrics.invalid_shards.add();
        fail_lease(lease);
      }
    }

    const bool all_done =
        std::all_of(leases_.begin(), leases_.end(), [](const fabric_lease& l) {
          return l.state == lease_state::done;
        });
    if (all_done) {
      break;
    }
    if (config_.on_progress &&
        clock_type::now() - last_progress >= config_.progress_interval) {
      report_progress(false);
      last_progress = clock_type::now();
    }
    if (!progressed) {
      std::this_thread::sleep_for(config_.poll_interval);
    }
  }
  report_progress(true);
  return report;
}

std::size_t campaign_fabric::merge(const std::string& out_path) const {
  std::vector<std::string> paths;
  paths.reserve(leases_.size());
  for (const fabric_lease& lease : leases_) {
    if (lease.state != lease_state::done) {
      fail("fabric merge: lease " + std::to_string(lease.id) + " is " +
           lease_state_name(lease.state) + ", not done — run() first");
    }
    validate_shard(lease);
    paths.push_back(lease.shard_path);
  }
  const std::size_t merged = merge_stores(paths, out_path);
  if (merged != config_.traces) {
    fail("fabric merge: merged " + std::to_string(merged) +
         " records, campaign has " + std::to_string(config_.traces));
  }
  return merged;
}

std::size_t merge_stores(const std::vector<std::string>& shard_paths,
                         const std::string& out_path) {
  if (shard_paths.empty()) {
    fail("merge_stores: no shards");
  }
  std::optional<power::trace_store_writer> writer;
  power::trace_store_descriptor desc;
  std::size_t expected_next = 0;
  std::size_t merged = 0;
  for (const std::string& path : shard_paths) {
    util::failpoint("fabric_merge_shard");
    const power::trace_store_reader reader(path); // strict: full CRC walk
    const power::trace_store_descriptor& d = reader.descriptor();
    if (!writer) {
      // The first shard fixes the merged descriptor (including
      // first_index); the writer re-chunks the concatenated stream, so
      // the result is byte-identical to a single uninterrupted archive.
      desc = d;
      writer.emplace(power::trace_store_writer::create(out_path, desc));
      expected_next = reader.first_index();
    } else if (d.samples != desc.samples || d.labels != desc.labels ||
               d.scalar != desc.scalar ||
               d.chunk_traces != desc.chunk_traces || d.seed != desc.seed ||
               d.config_hash != desc.config_hash) {
      fail("merge_stores: shard '" + path +
           "' was written by a different configuration than '" +
           shard_paths.front() + "'");
    }
    if (reader.first_index() != expected_next) {
      fail("merge_stores: shard '" + path + "' starts at record " +
           std::to_string(reader.first_index()) + ", expected " +
           std::to_string(expected_next) + " (shards must be contiguous)");
    }
    reader.stream([&writer](std::size_t, std::span<const double> labels,
                            std::span<const double> samples) {
      writer->append(labels, samples);
    });
    merged += reader.traces();
    expected_next = reader.next_index();
  }
  writer->close();
  return merged;
}

} // namespace usca::core
