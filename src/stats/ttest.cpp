#include "stats/ttest.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/batch_kernels.h"
#include "util/error.h"

namespace usca::stats {

namespace {

void require_length(std::span<const double> trace, std::size_t samples) {
  if (trace.size() != samples) {
    throw util::analysis_error("tvla: trace length mismatch");
  }
}

} // namespace

welch_result welch_t_from_moments(std::uint64_t count_a, double mean_a,
                                  double var_a, std::uint64_t count_b,
                                  double mean_b, double var_b) noexcept {
  welch_result out;
  if (count_a < 2 || count_b < 2) {
    return out;
  }
  const double va = var_a / static_cast<double>(count_a);
  const double vb = var_b / static_cast<double>(count_b);
  const double denom = std::sqrt(va + vb);
  if (denom == 0.0) {
    return out;
  }
  out.t = (mean_a - mean_b) / denom;
  const double num = (va + vb) * (va + vb);
  const double da = va * va / static_cast<double>(count_a - 1);
  const double db = vb * vb / static_cast<double>(count_b - 1);
  out.dof = (da + db) > 0.0 ? num / (da + db) : 0.0;
  return out;
}

welch_result welch_t(const running_stats& a, const running_stats& b) noexcept {
  return welch_t_from_moments(a.count(), a.mean(), a.variance(), b.count(),
                              b.mean(), b.variance());
}

tvla_accumulator::tvla_accumulator(std::size_t samples)
    : samples_(samples), center_(samples, 0.0) {
  fixed_.sum.assign(samples, 0.0);
  fixed_.sum_sq.assign(samples, 0.0);
  random_.sum.assign(samples, 0.0);
  random_.sum_sq.assign(samples, 0.0);
}

void tvla_accumulator::add_batch(const double* samples,
                                 std::size_t sample_stride,
                                 std::size_t rows,
                                 std::span<const unsigned char> is_fixed) {
  if (is_fixed.size() != rows) {
    throw util::analysis_error("tvla: classifier count does not match the "
                               "batch row count");
  }
  if (rows == 0) {
    return;
  }
  if (sample_stride < samples_) {
    throw util::analysis_error(
        "tvla: batch rows shorter than the accumulator's trace length");
  }
  if (!centered_) {
    std::copy(samples, samples + samples_, center_.begin());
    centered_ = true;
  }
  // Split the tile into per-population row pointers; each population's
  // per-element accumulation order stays ascending-row, exactly the
  // per-trace interleaving seen from that population's accumulator.
  fixed_rows_.clear();
  random_rows_.clear();
  fixed_rows_.reserve(rows);
  random_rows_.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    (is_fixed[r] != 0 ? fixed_rows_ : random_rows_)
        .push_back(samples + r * sample_stride);
  }
  fixed_.count += fixed_rows_.size();
  random_.count += random_rows_.size();
  const batch_kernels& kernels = active_kernels();
  block_rows_.resize(rows);
  const auto accumulate = [&](population& group,
                              const std::vector<const double*>& group_rows) {
    if (group_rows.empty()) {
      return;
    }
    for (std::size_t base = 0; base < samples_; base += block_samples) {
      const std::size_t n = std::min(block_samples, samples_ - base);
      for (std::size_t r = 0; r < group_rows.size(); ++r) {
        block_rows_[r] = group_rows[r] + base;
      }
      kernels.tvla_accumulate(group.sum.data() + base,
                              group.sum_sq.data() + base,
                              center_.data() + base, block_rows_.data(),
                              group_rows.size(), n);
    }
  };
  accumulate(fixed_, fixed_rows_);
  accumulate(random_, random_rows_);
}

// One trace is a one-row batch.  add_batch() accepts any stride at least
// the trace length; a single trace must match it exactly.
void tvla_accumulator::add_fixed(std::span<const double> trace) {
  static constexpr unsigned char fixed = 1;
  require_length(trace, samples_);
  add_batch(trace.data(), samples_, 1, {&fixed, 1});
}

void tvla_accumulator::add_random(std::span<const double> trace) {
  static constexpr unsigned char random = 0;
  require_length(trace, samples_);
  add_batch(trace.data(), samples_, 1, {&random, 1});
}

welch_result tvla_accumulator::at(std::size_t sample) const noexcept {
  const auto moments = [&](const population& group, double& mean,
                           double& variance) {
    const auto n = static_cast<double>(group.count);
    const double s = group.sum[sample];
    mean = center_[sample] + s / n;
    // Sample variance from the centered sums; clamp the tiny negative
    // values cancellation can produce on constant data.
    variance = group.count < 2
                   ? 0.0
                   : std::max(0.0, (group.sum_sq[sample] - s * s / n) /
                                       (n - 1.0));
  };
  if (fixed_.count < 2 || random_.count < 2) {
    return {};
  }
  double mean_f = 0.0;
  double var_f = 0.0;
  double mean_r = 0.0;
  double var_r = 0.0;
  moments(fixed_, mean_f, var_f);
  moments(random_, mean_r, var_r);
  return welch_t_from_moments(fixed_.count, mean_f, var_f, random_.count,
                              mean_r, var_r);
}

std::vector<double> tvla_accumulator::abs_t() const {
  std::vector<double> out(samples_);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::fabs(at(i).t);
  }
  return out;
}

std::size_t tvla_accumulator::leaking_samples(double threshold) const {
  const std::vector<double> t = abs_t();
  return static_cast<std::size_t>(
      std::count_if(t.begin(), t.end(),
                    [threshold](double v) { return v > threshold; }));
}

double tvla_accumulator::max_abs_t() const {
  const std::vector<double> t = abs_t();
  return t.empty() ? 0.0 : *std::max_element(t.begin(), t.end());
}

} // namespace usca::stats
