#include "util/failpoint.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/json_writer.h"
#include "util/telemetry.h"

namespace usca::util {

namespace {

enum class action_kind { crash, error, delay, corrupt };

struct rule {
  std::string site;
  action_kind action = action_kind::error;
  unsigned delay_ms = 0;
  std::uint64_t hit = 0; ///< fire on exactly this hit; 0 = every hit
  bool fired = false;    ///< one-shot rules fire once
};

constexpr std::size_t no_metric = static_cast<std::size_t>(-1);

struct site_count {
  std::string site;
  std::uint64_t hits = 0;
  /// Telemetry ids for failpoint.hits.<site> / failpoint.fired.<site>,
  /// registered when the site is first seen so kill-drill smokes can
  /// assert from a snapshot that the intended failpoint actually fired.
  std::size_t hits_metric = no_metric;
  std::size_t fired_metric = no_metric;
};

std::size_t register_site_metric(std::string_view prefix,
                                 std::string_view site) {
  try {
    return telem::register_metric(std::string(prefix) + std::string(site),
                                  "hits", "failpoint",
                                  telem::metric_kind::counter);
  } catch (const analysis_error&) {
    return no_metric; // registry full: instrumentation must not inject
  }
}

struct registry {
  std::mutex mutex;
  std::vector<rule> rules;
  std::vector<site_count> counts; ///< a handful of sites: linear scan
};

registry& instance() {
  static registry r;
  return r;
}

/// Strict decimal in [0, max]: a value past `max` is refused, never
/// wrapped into another (armable) hit number or delay.
std::uint64_t parse_number(std::string_view text, std::string_view spec,
                           std::uint64_t max) {
  if (text.empty()) {
    throw analysis_error("failpoint spec '" + std::string(spec) +
                         "': expected a number");
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw analysis_error("failpoint spec '" + std::string(spec) +
                           "': '" + std::string(text) +
                           "' is not a number");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) {
      throw analysis_error("failpoint spec '" + std::string(spec) +
                           "': '" + std::string(text) +
                           "' is out of range");
    }
    value = value * 10 + digit;
  }
  return value;
}

rule parse_rule(std::string_view text, std::string_view spec) {
  rule r;
  if (const std::size_t at = text.rfind('@'); at != std::string_view::npos) {
    r.hit = parse_number(text.substr(at + 1), spec,
                         std::numeric_limits<std::uint64_t>::max());
    if (r.hit == 0) {
      throw analysis_error("failpoint spec '" + std::string(spec) +
                           "': hit numbers are 1-based");
    }
    text = text.substr(0, at);
  }
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    throw analysis_error("failpoint spec '" + std::string(spec) +
                         "': expected site:action[:param][@hit]");
  }
  r.site = std::string(text.substr(0, colon));
  std::string_view action = text.substr(colon + 1);
  std::string_view param;
  if (const std::size_t p = action.find(':'); p != std::string_view::npos) {
    param = action.substr(p + 1);
    action = action.substr(0, p);
  }
  if (action == "crash") {
    r.action = action_kind::crash;
  } else if (action == "error") {
    r.action = action_kind::error;
  } else if (action == "corrupt") {
    r.action = action_kind::corrupt;
  } else if (action == "delay") {
    r.action = action_kind::delay;
    r.delay_ms = static_cast<unsigned>(
        parse_number(param, spec, std::numeric_limits<unsigned>::max()));
  } else {
    throw analysis_error("failpoint spec '" + std::string(spec) +
                         "': unknown action '" + std::string(action) +
                         "' (crash|error|delay:MS|corrupt)");
  }
  if (r.action != action_kind::delay && !param.empty()) {
    throw analysis_error("failpoint spec '" + std::string(spec) +
                         "': only delay takes a parameter");
  }
  return r;
}

std::vector<rule> parse_spec(std::string_view spec) {
  std::vector<rule> rules;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(';', begin);
    if (end == std::string_view::npos) {
      end = spec.size();
    }
    const std::string_view part = spec.substr(begin, end - begin);
    if (!part.empty()) {
      rules.push_back(parse_rule(part, spec));
    }
    begin = end + 1;
  }
  return rules;
}

/// Reads USCA_FAILPOINT once, before main() can hit any site.  A
/// malformed value aborts immediately with the parse error — fault
/// injection that silently fails to arm would invalidate the test that
/// requested it.
const bool env_loaded = [] {
  const char* env = std::getenv("USCA_FAILPOINT");
  if (env == nullptr || *env == '\0') {
    return true;
  }
  try {
    failpoint_configure(env);
  } catch (const analysis_error& e) {
    std::fprintf(stderr, "USCA_FAILPOINT: %s\n", e.what());
    std::abort();
  }
  return true;
}();

} // namespace

namespace detail {

std::atomic<bool> failpoints_armed{false};

bool failpoint_evaluate(std::string_view site) {
  registry& reg = instance();
  bool corrupt = false;
  std::uint64_t hits = 0;
  action_kind fired_action = action_kind::corrupt;
  unsigned delay_ms = 0;
  bool fired = false;
  std::size_t hits_metric = no_metric;
  std::size_t fired_metric = no_metric;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    site_count* count = nullptr;
    for (site_count& c : reg.counts) {
      if (c.site == site) {
        count = &c;
        break;
      }
    }
    if (count == nullptr) {
      site_count fresh{std::string(site), 0, no_metric, no_metric};
      fresh.hits_metric = register_site_metric("failpoint.hits.", site);
      fresh.fired_metric = register_site_metric("failpoint.fired.", site);
      reg.counts.push_back(std::move(fresh));
      count = &reg.counts.back();
    }
    hits = ++count->hits;
    hits_metric = count->hits_metric;
    fired_metric = count->fired_metric;
    for (rule& r : reg.rules) {
      if (r.site != site || r.fired) {
        continue;
      }
      if (r.hit != 0 && r.hit != hits) {
        continue;
      }
      if (r.hit != 0) {
        r.fired = true; // one-shot
      }
      fired = true;
      fired_action = r.action;
      delay_ms = r.delay_ms;
      break;
    }
  }
  if (hits_metric != no_metric) {
    telem::counter_add(hits_metric, 1);
  }
  if (!fired) {
    return false;
  }
  if (fired_metric != no_metric) {
    telem::counter_add(fired_metric, 1);
  }
  switch (fired_action) {
  case action_kind::crash: {
    // The crash marker goes to the telemetry sink (if any) with a raw
    // O_APPEND write — no stdio flush, no data-file mutation — so a
    // kill-drill can assert the intended failpoint fired even though
    // the process leaves no snapshot behind.
    util::json_writer w;
    w.begin_object();
    w.member("event", "failpoint_crash");
    w.member("site", site);
    w.member("hit", hits);
    w.member("pid", static_cast<std::uint64_t>(::getpid()));
    w.end_object();
    telem::export_line(w.line());
    // _exit, not abort/exit: no stream flushing, no atexit, no core —
    // the closest in-process stand-in for SIGKILL.
    ::_exit(failpoint_crash_exit_code);
  }
  case action_kind::error:
    throw analysis_error("failpoint '" + std::string(site) +
                         "' injected error (hit " + std::to_string(hits) +
                         ")");
  case action_kind::delay:
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    break;
  case action_kind::corrupt:
    corrupt = true;
    break;
  }
  return corrupt;
}

} // namespace detail

void failpoint_configure(std::string_view spec) {
  std::vector<rule> rules = parse_spec(spec); // throws before any mutation
  static const telem::gauge armed{"failpoint.armed_rules", "rules",
                                  "failpoint"};
  registry& reg = instance();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.rules = std::move(rules);
  reg.counts.clear();
  armed.set(static_cast<std::int64_t>(reg.rules.size()));
  detail::failpoints_armed.store(!reg.rules.empty(),
                                 std::memory_order_relaxed);
}

void failpoint_clear() { failpoint_configure({}); }

std::uint64_t failpoint_hits(std::string_view site) {
  registry& reg = instance();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const site_count& c : reg.counts) {
    if (c.site == site) {
      return c.hits;
    }
  }
  return 0;
}

} // namespace usca::util
