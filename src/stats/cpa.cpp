#include "stats/cpa.h"

#include <algorithm>
#include <cmath>

#include "stats/batch_kernels.h"
#include "stats/pearson.h"
#include "util/error.h"

namespace usca::stats {

namespace {

double correlation_from_sums(double n, double sum_h, double sum_hh,
                             double sum_t, double sum_tt,
                             double sum_ht) noexcept {
  const double cov = n * sum_ht - sum_h * sum_t;
  const double var_h = n * sum_hh - sum_h * sum_h;
  const double var_t = n * sum_tt - sum_t * sum_t;
  if (var_h <= 0.0 || var_t <= 0.0) {
    return 0.0;
  }
  return cov / std::sqrt(var_h * var_t);
}

} // namespace

// ---------------------------------------------------------------------------
// cpa_result
// ---------------------------------------------------------------------------

cpa_result::peak cpa_result::peak_of(std::size_t guess) const {
  peak p;
  p.guess = guess;
  const std::vector<double>& row = corr[guess];
  for (std::size_t s = 0; s < row.size(); ++s) {
    if (std::fabs(row[s]) > std::fabs(p.corr)) {
      p.corr = row[s];
      p.sample = s;
    }
  }
  return p;
}

cpa_result::peak cpa_result::best() const {
  peak best_peak;
  bool first = true;
  for (std::size_t g = 0; g < corr.size(); ++g) {
    const peak p = peak_of(g);
    if (first || std::fabs(p.corr) > std::fabs(best_peak.corr)) {
      best_peak = p;
      first = false;
    }
  }
  return best_peak;
}

cpa_result::peak cpa_result::best_excluding(std::size_t excluded) const {
  peak best_peak;
  bool first = true;
  for (std::size_t g = 0; g < corr.size(); ++g) {
    if (g == excluded) {
      continue;
    }
    const peak p = peak_of(g);
    if (first || std::fabs(p.corr) > std::fabs(best_peak.corr)) {
      best_peak = p;
      first = false;
    }
  }
  return best_peak;
}

std::size_t cpa_result::rank_of(std::size_t guess) const {
  const double own = std::fabs(peak_of(guess).corr);
  std::size_t rank = 0;
  for (std::size_t g = 0; g < corr.size(); ++g) {
    if (g != guess && std::fabs(peak_of(g).corr) > own) {
      ++rank;
    }
  }
  return rank;
}

double cpa_result::distinguishing_z(std::size_t guess) const {
  const double own = std::fabs(peak_of(guess).corr);
  const double rival = std::fabs(best_excluding(guess).corr);
  return correlation_difference_z(own, rival, traces);
}

// ---------------------------------------------------------------------------
// cpa_engine (naive)
// ---------------------------------------------------------------------------

cpa_engine::cpa_engine(std::size_t samples, std::size_t guesses)
    : samples_(samples),
      guesses_(guesses),
      sum_t_(samples, 0.0),
      sum_tt_(samples, 0.0),
      sum_h_(guesses, 0.0),
      sum_hh_(guesses, 0.0),
      sum_ht_(guesses * samples, 0.0) {}

void cpa_engine::add_trace(std::span<const double> trace,
                           std::span<const double> hypothesis_per_guess) {
  if (trace.size() != samples_ || hypothesis_per_guess.size() != guesses_) {
    throw util::analysis_error("cpa_engine: dimension mismatch");
  }
  ++traces_;
  for (std::size_t s = 0; s < samples_; ++s) {
    sum_t_[s] += trace[s];
    sum_tt_[s] += trace[s] * trace[s];
  }
  for (std::size_t g = 0; g < guesses_; ++g) {
    const double h = hypothesis_per_guess[g];
    sum_h_[g] += h;
    sum_hh_[g] += h * h;
    double* row = sum_ht_.data() + g * samples_;
    for (std::size_t s = 0; s < samples_; ++s) {
      row[s] += h * trace[s];
    }
  }
}

cpa_result cpa_engine::solve() const {
  cpa_result out;
  out.traces = traces_;
  out.samples = samples_;
  out.corr.assign(guesses_, std::vector<double>(samples_, 0.0));
  const auto n = static_cast<double>(traces_);
  if (traces_ < 3) {
    return out;
  }
  for (std::size_t g = 0; g < guesses_; ++g) {
    const double* row = sum_ht_.data() + g * samples_;
    for (std::size_t s = 0; s < samples_; ++s) {
      out.corr[g][s] = correlation_from_sums(n, sum_h_[g], sum_hh_[g],
                                             sum_t_[s], sum_tt_[s], row[s]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// partitioned_cpa
// ---------------------------------------------------------------------------

partitioned_cpa::partitioned_cpa(std::size_t samples)
    : samples_(samples),
      sum_t_(samples, 0.0),
      sum_tt_(samples, 0.0),
      part_sum_(num_partitions * samples, 0.0),
      part_n_(num_partitions, 0) {}

void partitioned_cpa::add_trace(std::uint8_t partition,
                                std::span<const double> trace) {
  // add_batch() accepts any stride at least the trace length; one trace
  // must match it exactly.
  if (trace.size() != samples_) {
    throw util::analysis_error("partitioned_cpa: trace length mismatch");
  }
  add_batch({&partition, 1}, trace.data(), samples_, 1);
}

void partitioned_cpa::add_batch(std::span<const std::uint8_t> partitions,
                                const double* samples,
                                std::size_t sample_stride,
                                std::size_t rows) {
  if (partitions.size() != rows) {
    throw util::analysis_error("partitioned_cpa: partition count does not "
                               "match the batch row count");
  }
  if (rows > 0 && sample_stride < samples_) {
    throw util::analysis_error("partitioned_cpa: batch rows shorter than "
                               "the accumulator's trace length");
  }
  traces_ += rows;
  for (std::size_t r = 0; r < rows; ++r) {
    ++part_n_[partitions[r]];
  }
  const batch_kernels& kernels = active_kernels();
  for (std::size_t base = 0; base < samples_; base += block_samples) {
    const std::size_t n = std::min(block_samples, samples_ - base);
    kernels.cpa_accumulate(sum_t_.data() + base, sum_tt_.data() + base,
                           part_sum_.data() + base, samples_,
                           partitions.data(), samples + base,
                           sample_stride, rows, n);
  }
}

cpa_result partitioned_cpa::solve(const model_fn& model,
                                  std::size_t guesses) const {
  cpa_result out;
  out.traces = traces_;
  out.samples = samples_;
  out.corr.assign(guesses, std::vector<double>(samples_, 0.0));
  if (traces_ < 3) {
    return out;
  }
  const auto n = static_cast<double>(traces_);
  // The model is evaluated once per (guess, partition) — never inside the
  // per-sample loops, which stay plain fused multiply-add streams.
  std::vector<double> hypothesis(num_partitions);
  std::vector<double> sum_ht(samples_);
  for (std::size_t g = 0; g < guesses; ++g) {
    double sum_h = 0.0;
    double sum_hh = 0.0;
    for (std::size_t p = 0; p < num_partitions; ++p) {
      if (part_n_[p] == 0) {
        hypothesis[p] = 0.0;
        continue;
      }
      const double h = model(g, p);
      hypothesis[p] = h;
      const auto np = static_cast<double>(part_n_[p]);
      sum_h += np * h;
      sum_hh += np * h * h;
    }
    std::fill(sum_ht.begin(), sum_ht.end(), 0.0);
    // Blocked cross-accumulation: every partition row streams through a
    // fixed sample block before the next partition is touched, keeping the
    // sum_ht block register/cache-resident across all 256 rows (the
    // dispatch picks the register-blocked kernel the CPU supports).
    const batch_kernels& kernels = active_kernels();
    for (std::size_t base = 0; base < samples_; base += block_samples) {
      const std::size_t len = std::min(block_samples, samples_ - base);
      kernels.solve_accumulate(sum_ht.data() + base, hypothesis.data(),
                               part_sum_.data() + base, samples_,
                               part_n_.data(), num_partitions, len);
    }
    for (std::size_t s = 0; s < samples_; ++s) {
      out.corr[g][s] = correlation_from_sums(n, sum_h, sum_hh, sum_t_[s],
                                             sum_tt_[s], sum_ht[s]);
    }
  }
  return out;
}

} // namespace usca::stats
