// Shared helpers for the experiment harnesses: a small key=value command
// line parser (every bench runs standalone with sensible defaults),
// wall-clock timing, ASCII table rendering, machine-readable report
// emission (JSON documents are built with util/json_writer.h — benches
// must not hand-roll escaping or comma placement), and the ablation
// benches' CPA attack cost over one acquired trace matrix.
#ifndef USCA_BENCH_BENCH_UTIL_H
#define USCA_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "crypto/aes_codegen.h"
#include "power/trace.h"
#include "stats/attack_metrics.h"
#include "stats/cpa.h"
#include "util/bitops.h"
#include "util/json_writer.h"

namespace usca::bench {

/// Parses "key=value" arguments; unknown keys abort with a usage hint.
class arg_map {
public:
  arg_map(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "usage: %s [key=value]...\n", argv[0]);
        std::exit(2);
      }
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }

  /// A non-negative integer of at least `min_value` (a trace count the
  /// analysis cannot run on, e.g. 0, must exit with usage, not abort).
  std::size_t get_size(const std::string& key, std::size_t fallback,
                       std::size_t min_value = 0) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    const std::string expected =
        min_value == 0 ? "a non-negative integer"
                       : "an integer >= " + std::to_string(min_value);
    // stoull alone is too lenient: it wraps negatives and ignores
    // trailing garbage, so "traces=-1" would become ~1.8e19.
    unsigned long long value = 0;
    try {
      std::size_t consumed = 0;
      value = std::stoull(it->second, &consumed);
      if (consumed != it->second.size() ||
          it->second.find('-') != std::string::npos) {
        die(key, it->second, expected);
      }
    } catch (const std::exception&) {
      die(key, it->second, expected);
    }
    if (value < min_value) {
      die(key, it->second, expected);
    }
    return static_cast<std::size_t>(value);
  }

  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    try {
      std::size_t consumed = 0;
      const double value = std::stod(it->second, &consumed);
      if (consumed != it->second.size()) {
        die(key, it->second, "a number");
      }
      return value;
    } catch (const std::exception&) {
      die(key, it->second, "a number");
    }
  }

private:
  [[noreturn]] static void die(const std::string& key,
                               const std::string& value,
                               const std::string& expected) {
    std::fprintf(stderr, "invalid value '%s' for %s= (expected %s)\n",
                 value.c_str(), key.c_str(), expected.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

/// Wall-clock stopwatch for reporting campaign acquisition cost.
class stopwatch {
public:
  stopwatch() : started_(std::chrono::steady_clock::now()) {}

  /// Seconds elapsed since construction.
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started_)
        .count();
  }

private:
  std::chrono::steady_clock::time_point started_;
};

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

/// Writes a finished json_writer document to `out` with JSON-lines
/// framing — the one way bench reports reach stdout and report files.
inline void write_json_report(std::FILE* out, const util::json_writer& w) {
  const std::string text = w.line();
  std::fwrite(text.data(), 1, text.size(), out);
}

/// Packs `traces` row-major into `matrix`, each truncated to the
/// shortest (a victim with data-dependent timing yields windows of
/// different lengths); returns the row width.
inline std::size_t pack_rows(const std::vector<power::trace>& traces,
                             std::vector<double>& matrix) {
  std::size_t width = traces.empty() ? 0 : traces.front().size();
  for (const power::trace& t : traces) {
    width = std::min(width, t.size());
  }
  matrix.clear();
  matrix.reserve(traces.size() * width);
  for (const power::trace& t : traces) {
    matrix.insert(matrix.end(), t.begin(),
                  t.begin() + static_cast<std::ptrdiff_t>(width));
  }
  return width;
}

/// First prefix the MTD search of cpa_attack_cost() probes, so the
/// fewest traces an ablation campaign can run with.
inline constexpr std::size_t mtd_start_traces = 50;

/// CPA attack cost of one acquired campaign under the HW(SubBytes-out)
/// model: measurements-to-disclosure of key byte 0 (Fisher-z > 2.326,
/// searched from mtd_start_traces up to all of them) and the number of
/// key bytes at rank 0 over every trace.
struct cpa_cost {
  std::size_t mtd = 0;
  int key_bytes = 0;
};

/// Row r of `matrix` (row-major, `width` samples per row) is the trace of
/// `plaintexts[r]`.  Every MTD probe solves a partitioned CPA fed the
/// matrix's first n rows in one add_batch(), so the search costs no
/// extra simulation.
inline cpa_cost
cpa_attack_cost(const std::vector<double>& matrix, std::size_t width,
                const std::vector<crypto::aes_block>& plaintexts,
                const crypto::aes_key& key) {
  const auto model = [](std::size_t guess, std::size_t pt_byte) {
    return static_cast<double>(util::hamming_weight(
        crypto::subbytes_hypothesis(static_cast<std::uint8_t>(pt_byte),
                                    static_cast<std::uint8_t>(guess))));
  };
  std::vector<std::uint8_t> partitions(plaintexts.size());
  const auto solve_prefix = [&](std::size_t byte_index, std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) {
      partitions[r] = plaintexts[r][byte_index];
    }
    stats::partitioned_cpa cpa(width);
    cpa.add_batch(std::span<const std::uint8_t>(partitions).first(n),
                  matrix.data(), width, n);
    return cpa.solve(model, 256);
  };
  cpa_cost out;
  out.mtd = stats::measurements_to_disclosure(
      [&](std::size_t n) {
        return solve_prefix(0, n).distinguishing_z(key[0]);
      },
      2.326, mtd_start_traces, plaintexts.size());
  for (std::size_t b = 0; b < key.size(); ++b) {
    if (solve_prefix(b, plaintexts.size()).rank_of(key[b]) == 0) {
      ++out.key_bytes;
    }
  }
  return out;
}

} // namespace usca::bench

#endif // USCA_BENCH_BENCH_UTIL_H
