// Welch's t-test and the TVLA (fixed-vs-random) leakage assessment.
//
// The paper detects leakage through model correlation; the t-test variant
// is the standard complementary, model-free assessment (Goodwill et al.'s
// Test Vector Leakage Assessment) and is included as the `bench_tvla`
// experiment: two trace populations (fixed input vs. random input) are
// compared sample-wise, and |t| > 4.5 flags a leak.
#ifndef USCA_STATS_TTEST_H
#define USCA_STATS_TTEST_H

#include <cstdint>
#include <span>
#include <vector>

#include "stats/descriptive.h"

namespace usca::stats {

struct welch_result {
  double t = 0.0;   ///< Welch's t statistic
  double dof = 0.0; ///< Welch–Satterthwaite degrees of freedom
};

/// Welch's unequal-variance t-test from two accumulated populations.
welch_result welch_t(const running_stats& a, const running_stats& b) noexcept;

/// Welch's t from raw moments (count, mean, sample variance) of the two
/// populations — the formula welch_t() evaluates, exposed so blocked
/// sum/sum-of-squares accumulators can share it.
welch_result welch_t_from_moments(std::uint64_t count_a, double mean_a,
                                  double var_a, std::uint64_t count_b,
                                  double mean_b, double var_b) noexcept;

/// Sample-wise TVLA accumulator: feed traces labelled fixed or random,
/// read back the per-sample t statistics.  core::tvla_sink
/// (core/analysis_sinks.h) adapts it to the trace source/sink
/// architecture, so the assessment runs identically on live campaigns
/// and archived trace stores.
///
/// Internally a blocked structure-of-arrays accumulator: each population
/// keeps contiguous per-sample sum and sum-of-squares arrays updated in
/// fixed-size blocks by the batch kernels (stats/batch_kernels.h), the
/// one accumulate loop; a single trace is a one-row batch.  Values are
/// accumulated relative to a per-sample center taken from the first trace,
/// so the moment sums stay small and the t statistics match a per-sample
/// Welford accumulation to ~1e-12 relative.  The block size is fixed, so
/// results are bit-identical for any thread count or delivery batching of
/// the producing campaign.
class tvla_accumulator {
public:
  /// Fixed accumulation block, in samples (see partitioned_cpa).
  static constexpr std::size_t block_samples = 256;

  explicit tvla_accumulator(std::size_t samples);

  /// Adds one trace to the fixed / random population: a one-row
  /// add_batch().  Throws util::analysis_error unless the trace holds
  /// exactly samples() values.
  void add_fixed(std::span<const double> trace);
  void add_random(std::span<const double> trace);

  /// Adds a batch of `rows` traces at once: row r's samples start at
  /// samples + r * sample_stride and belong to the fixed population when
  /// is_fixed[r] != 0.  Each population's accumulator is updated in
  /// ascending row order through the register-blocked batch kernels
  /// (stats/batch_kernels.h), so the result is bit-identical at any
  /// batch size.  The stride may exceed samples() (a wider tile's
  /// leading window).
  void add_batch(const double* samples, std::size_t sample_stride,
                 std::size_t rows, std::span<const unsigned char> is_fixed);

  std::size_t samples() const noexcept { return samples_; }
  welch_result at(std::size_t sample) const noexcept;

  /// Per-sample |t| values.
  std::vector<double> abs_t() const;

  /// Count of samples with |t| above the threshold (TVLA default 4.5).
  std::size_t leaking_samples(double threshold = 4.5) const;

  /// Largest |t| over all samples.
  double max_abs_t() const;

private:
  struct population {
    std::uint64_t count = 0;
    std::vector<double> sum;    ///< per-sample sum of (x - center)
    std::vector<double> sum_sq; ///< per-sample sum of (x - center)^2
  };

  std::size_t samples_ = 0;
  bool centered_ = false;
  std::vector<double> center_; ///< per-sample offset from the first trace
  population fixed_;
  population random_;
  /// Row-pointer scratch reused across add_batch calls (hot path: one
  /// call per tile, no per-call allocation).
  std::vector<const double*> fixed_rows_;
  std::vector<const double*> random_rows_;
  std::vector<const double*> block_rows_;
};

} // namespace usca::stats

#endif // USCA_STATS_TTEST_H
