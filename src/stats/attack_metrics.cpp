#include "stats/attack_metrics.h"

#include <algorithm>

#include "util/error.h"

namespace usca::stats {

double success_rate(int experiments,
                    const std::function<std::size_t(std::uint64_t)>&
                        rank_of_correct,
                    std::uint64_t seed_base) {
  if (experiments <= 0) {
    throw util::analysis_error("success_rate: experiments must be positive");
  }
  int successes = 0;
  for (int e = 0; e < experiments; ++e) {
    if (rank_of_correct(seed_base + static_cast<std::uint64_t>(e)) == 0) {
      ++successes;
    }
  }
  return static_cast<double>(successes) / experiments;
}

double guessing_entropy(int experiments,
                        const std::function<std::size_t(std::uint64_t)>&
                            rank_of_correct,
                        std::uint64_t seed_base) {
  if (experiments <= 0) {
    throw util::analysis_error(
        "guessing_entropy: experiments must be positive");
  }
  double total = 0.0;
  for (int e = 0; e < experiments; ++e) {
    total += static_cast<double>(
        rank_of_correct(seed_base + static_cast<std::uint64_t>(e)));
  }
  return total / experiments;
}

std::size_t measurements_to_disclosure(
    const std::function<double(std::size_t)>& distinguishing_z,
    double z_threshold, std::size_t start_traces, std::size_t max_traces) {
  if (start_traces == 0 || start_traces > max_traces) {
    throw util::analysis_error(
        "measurements_to_disclosure: invalid search range");
  }
  std::size_t n = start_traces;
  while (n < max_traces && distinguishing_z(n) <= z_threshold) {
    n *= 2;
  }
  // z first clears the threshold between the last failed step (n/2) and
  // n — or max_traces, when the doubling overshot it.
  if (n >= max_traces && distinguishing_z(max_traces) <= z_threshold) {
    return max_traces;
  }
  std::size_t low = n / 2;
  std::size_t high = std::min(n, max_traces);
  while (high - low > std::max<std::size_t>(1, high / 16)) {
    const std::size_t mid = low + (high - low) / 2;
    if (distinguishing_z(mid) > z_threshold) {
      high = mid;
    } else {
      low = mid;
    }
  }
  return high;
}

} // namespace usca::stats
