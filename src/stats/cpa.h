// Correlation Power Analysis engines.
//
// Two implementations of the same attack:
//
//  * cpa_engine — the textbook formulation: for every key guess, the
//    hypothesis values are correlated against every trace sample through
//    one-pass co-moment accumulators;
//  * partitioned_cpa — the classical optimization for byte-wide targets:
//    traces are first aggregated into per-partition sums (the partition id
//    is the known input byte, e.g. the plaintext byte of the attacked
//    S-box), after which any number of guesses can be evaluated from the
//    256 aggregates at negligible cost.
//
// Both produce identical correlations (cross-checked by the test suite);
// the partitioned engine turns the 100k-trace AES experiments of the
// paper's Section 5 from minutes into milliseconds.
//
// In the trace source/sink architecture the partitioned engine is the
// payload of core::cpa_sink (core/analysis_sinks.h): because the blocked
// accumulation order is fixed and every source delivers in index order,
// feeding it from a live campaign or from an archived trace store
// (mmap replay) yields bit-identical correlation matrices.
#ifndef USCA_STATS_CPA_H
#define USCA_STATS_CPA_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace usca::stats {

struct cpa_result {
  std::size_t traces = 0;
  std::size_t samples = 0;
  /// corr[guess][sample]
  std::vector<std::vector<double>> corr;

  struct peak {
    std::size_t guess = 0;
    std::size_t sample = 0;
    double corr = 0.0; ///< signed correlation at the peak
  };

  /// Max-|corr| peak of one guess.
  peak peak_of(std::size_t guess) const;
  /// Overall best guess by max |corr|.
  peak best() const;
  /// Best peak excluding `excluded` (the "best wrong guess").
  peak best_excluding(std::size_t excluded) const;
  /// Rank of `guess` (0 = best) under the max-|corr| distinguisher.
  std::size_t rank_of(std::size_t guess) const;
  /// z-score that `guess` beats the best other guess (Fisher z difference)
  /// — the paper's key-distinguishability criterion.
  double distinguishing_z(std::size_t guess) const;
};

/// Generic (naive) CPA: per-trace hypothesis values supplied explicitly.
class cpa_engine {
public:
  cpa_engine(std::size_t samples, std::size_t guesses);

  /// Adds one trace with its hypothesis value for every guess.
  void add_trace(std::span<const double> trace,
                 std::span<const double> hypothesis_per_guess);

  cpa_result solve() const;

  std::size_t traces() const noexcept { return traces_; }

private:
  std::size_t samples_;
  std::size_t guesses_;
  std::size_t traces_ = 0;
  std::vector<double> sum_t_;   ///< per sample
  std::vector<double> sum_tt_;  ///< per sample
  std::vector<double> sum_h_;   ///< per guess
  std::vector<double> sum_hh_;  ///< per guess
  std::vector<double> sum_ht_;  ///< [guess][sample] flattened
};

/// Partitioned CPA for byte-wide intermediate targets.
///
/// The accumulation hot path is *blocked*: traces stream through
/// fixed-size sample blocks whose per-block sum / sum-of-squares /
/// per-partition cross arrays are updated by the batch kernels
/// (stats/batch_kernels.h), the one accumulate loop; a single trace is a
/// one-row batch.  The block size is a compile-time constant, so the
/// accumulation order — and therefore every floating-point result — is
/// independent of trace length, thread count and delivery batching.
class partitioned_cpa {
public:
  static constexpr std::size_t num_partitions = 256;
  /// Fixed accumulation block, in samples.  Exposed so the tests can pin
  /// block-boundary behaviour (trace lengths of block-1 / block / block+1).
  static constexpr std::size_t block_samples = 256;

  explicit partitioned_cpa(std::size_t samples);

  /// Adds one trace under its known input byte (the partition): a
  /// one-row add_batch().  Throws util::analysis_error unless the trace
  /// holds exactly samples() values.
  void add_trace(std::uint8_t partition, std::span<const double> trace);

  /// Adds a batch of `rows` traces at once: row r's samples start at
  /// samples + r * sample_stride and belong to partitions[r].  Runs the
  /// register-blocked batch kernels (stats/batch_kernels.h) but updates
  /// every accumulator element in ascending row order, so the result is
  /// bit-identical at any batch size.  The stride may exceed samples()
  /// (a wider tile's leading window).
  void add_batch(std::span<const std::uint8_t> partitions,
                 const double* samples, std::size_t sample_stride,
                 std::size_t rows);

  /// Hypothesis function: model value for (guess, partition).
  using model_fn = std::function<double(std::size_t guess,
                                        std::size_t partition)>;

  cpa_result solve(const model_fn& model, std::size_t guesses) const;

  std::size_t traces() const noexcept { return traces_; }
  std::size_t samples() const noexcept { return samples_; }

private:
  std::size_t samples_;
  std::size_t traces_ = 0;
  std::vector<double> sum_t_;
  std::vector<double> sum_tt_;
  std::vector<double> part_sum_;       ///< [partition][sample] flattened
  std::vector<std::uint64_t> part_n_;  ///< traces per partition
};

} // namespace usca::stats

#endif // USCA_STATS_CPA_H
