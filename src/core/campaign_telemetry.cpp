#include "core/campaign_telemetry.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "util/error.h"
#include "util/json_writer.h"
#include "util/telemetry.h"

namespace usca::core {

std::uint64_t wall_clock_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// ----------------------------------------------------------- heartbeat

std::string heartbeat_path(const std::string& shard_path) {
  return shard_path + ".hb";
}

namespace {

std::string heartbeat_json(const worker_heartbeat& hb) {
  // Field order is the read_heartbeat() parse contract.
  util::json_writer w;
  w.begin_object();
  w.member("pid", hb.pid);
  w.member("first_index", hb.first_index);
  w.member("traces", hb.traces);
  w.member("produced", hb.produced);
  w.member("wall_ms", hb.wall_ms);
  w.member("state", hb.state);
  w.end_object();
  return w.line();
}

} // namespace

void write_heartbeat(const std::string& path, const worker_heartbeat& hb) {
  const std::string body = heartbeat_json(hb);
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw util::analysis_error("heartbeat '" + tmp +
                               "': open failed: " + std::strerror(errno));
  }
  std::size_t done = 0;
  while (done < body.size()) {
    const ssize_t n = ::write(fd, body.data() + done, body.size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int err = errno;
      ::close(fd);
      throw util::analysis_error("heartbeat '" + tmp +
                                 "': write failed: " + std::strerror(err));
    }
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  // No fsync: a heartbeat is advisory — losing the newest one to a
  // crash costs a few hundred ms of staleness, not correctness.
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw util::analysis_error("heartbeat '" + path +
                               "': rename failed: " + std::strerror(errno));
  }
}

std::optional<worker_heartbeat> read_heartbeat(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return std::nullopt;
  }
  char line[512] = {};
  const bool got = std::fgets(line, sizeof line, in) != nullptr;
  std::fclose(in);
  if (!got) {
    return std::nullopt;
  }
  // Exactly the shape heartbeat_json() writes, digits through
  // std::from_chars: a number out of range is a malformed file, not
  // (as with sscanf) undefined behaviour.
  std::string_view rest(line);
  const auto literal = [&rest](std::string_view text) {
    if (!rest.starts_with(text)) {
      return false;
    }
    rest.remove_prefix(text.size());
    return true;
  };
  const auto number = [&rest](std::uint64_t& out) {
    const auto [end, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), out);
    rest.remove_prefix(static_cast<std::size_t>(end - rest.data()));
    return ec == std::errc{};
  };
  worker_heartbeat hb;
  if (!(literal("{\"pid\":") && number(hb.pid) &&
        literal(",\"first_index\":") && number(hb.first_index) &&
        literal(",\"traces\":") && number(hb.traces) &&
        literal(",\"produced\":") && number(hb.produced) &&
        literal(",\"wall_ms\":") && number(hb.wall_ms) &&
        literal(",\"state\":\""))) {
    return std::nullopt;
  }
  const std::size_t letters =
      std::min(rest.find_first_not_of("abcdefghijklmnopqrstuvwxyz"),
               rest.size());
  hb.state = std::string(rest.substr(0, letters));
  rest.remove_prefix(letters);
  if (hb.state.empty() || !literal("\"}") ||
      !(rest.empty() || rest == "\n")) {
    return std::nullopt;
  }
  return hb;
}

heartbeat_publisher::heartbeat_publisher(
    std::string path, worker_heartbeat base,
    std::function<std::uint64_t()> produced_fn,
    std::chrono::milliseconds interval)
    : path_(std::move(path)), base_(std::move(base)),
      produced_fn_(std::move(produced_fn)), interval_(interval) {
  // The first write throws: a worker that cannot write next to its own
  // shard will not be able to write the shard either — fail fast.
  write("starting", true);
  thread_ = std::thread([this]() {
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(interval_);
      if (stop_.load(std::memory_order_acquire)) {
        break;
      }
      write("running", false);
    }
  });
}

heartbeat_publisher::~heartbeat_publisher() {
  if (!finished_) {
    finish("failed");
  }
}

void heartbeat_publisher::finish(std::string_view final_state) {
  if (finished_) {
    return;
  }
  finished_ = true;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
  write(final_state, false);
}

void heartbeat_publisher::write(std::string_view state, bool rethrow) {
  worker_heartbeat hb = base_;
  hb.state = std::string(state);
  hb.wall_ms = wall_clock_ms();
  if (produced_fn_) {
    hb.produced = produced_fn_();
  }
  try {
    write_heartbeat(path_, hb);
  } catch (const util::analysis_error&) {
    if (rethrow) {
      throw;
    }
    // Steady-state heartbeat failures (disk full, directory removed
    // under a doomed worker) must not kill the campaign.
  }
}

// ------------------------------------------------------------ snapshot

bool export_snapshot(std::string_view role) {
  if (telem::export_path().empty()) {
    return false;
  }
  static std::atomic<std::uint64_t> sequence{0};
  util::json_writer w;
  w.begin_object();
  w.member("event", "snapshot");
  w.member("role", role);
  w.member("pid", static_cast<std::uint64_t>(::getpid()));
  w.member("seq", sequence.fetch_add(1, std::memory_order_relaxed));
  w.member("wall_ms", wall_clock_ms());
  w.key("metrics");
  telem::snapshot_json(w);
  w.end_object();
  return telem::export_line(w.line());
}

// ------------------------------------------------------------ progress

void progress_meter::start(std::uint64_t total, std::uint64_t already_done) {
  total_ = total;
  baseline_ = already_done;
  last_produced_ = prev_produced_ = already_done;
  started_ = last_observed_ = prev_observed_ = clock::now();
}

void progress_meter::observe(std::uint64_t produced) {
  prev_produced_ = last_produced_;
  prev_observed_ = last_observed_;
  last_produced_ = produced;
  last_observed_ = clock::now();
}

double progress_meter::mean_rate() const noexcept {
  const double elapsed =
      std::chrono::duration<double>(last_observed_ - started_).count();
  if (elapsed <= 0.0 || last_produced_ <= baseline_) {
    return 0.0;
  }
  return static_cast<double>(last_produced_ - baseline_) / elapsed;
}

double progress_meter::recent_rate() const noexcept {
  const double window =
      std::chrono::duration<double>(last_observed_ - prev_observed_).count();
  if (window <= 0.0 || last_produced_ <= prev_produced_) {
    return mean_rate();
  }
  return static_cast<double>(last_produced_ - prev_produced_) / window;
}

double progress_meter::eta_seconds() const noexcept {
  if (last_produced_ >= total_) {
    return 0.0;
  }
  const double rate = recent_rate();
  if (rate <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(total_ - last_produced_) / rate;
}

std::string progress_meter::format_line(std::size_t live_workers) const {
  char buf[160];
  const double eta = eta_seconds();
  char eta_text[32];
  if (std::isinf(eta)) {
    std::snprintf(eta_text, sizeof eta_text, "--:--");
  } else if (eta >= 3600.0) {
    std::snprintf(eta_text, sizeof eta_text, "%d:%02d:%02d",
                  static_cast<int>(eta) / 3600,
                  (static_cast<int>(eta) % 3600) / 60,
                  static_cast<int>(eta) % 60);
  } else {
    std::snprintf(eta_text, sizeof eta_text, "%d:%02d",
                  static_cast<int>(eta) / 60, static_cast<int>(eta) % 60);
  }
  std::snprintf(buf, sizeof buf,
                "%" PRIu64 "/%" PRIu64 " traces  %.1f/s  eta %s  "
                "%zu worker%s live",
                last_produced_, total_, recent_rate(), eta_text, live_workers,
                live_workers == 1 ? "" : "s");
  return buf;
}

} // namespace usca::core
