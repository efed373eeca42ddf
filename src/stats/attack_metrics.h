// Attack-quality metrics: success rate, guessing entropy, and
// measurements-to-disclosure.
//
// The paper reports single campaigns; these estimators quantify attack
// quality over repeated independent campaigns, which the extension bench
// (measurements-to-disclosure scaling) builds on.  All estimators take
// callables so they compose with any campaign construction.
#ifndef USCA_STATS_ATTACK_METRICS_H
#define USCA_STATS_ATTACK_METRICS_H

#include <cstdint>
#include <functional>

namespace usca::stats {

/// Fraction of `experiments` campaigns (seeded 0..experiments-1 offset by
/// `seed_base`) in which `attack` returns rank 0 for the correct key.
/// `rank_of_correct(seed)` runs one campaign and returns the rank.
double success_rate(int experiments,
                    const std::function<std::size_t(std::uint64_t)>&
                        rank_of_correct,
                    std::uint64_t seed_base = 0);

/// Average rank of the correct key over repeated campaigns (0 = always
/// first; log2 of this plus one approximates remaining key entropy).
double guessing_entropy(int experiments,
                        const std::function<std::size_t(std::uint64_t)>&
                            rank_of_correct,
                        std::uint64_t seed_base = 0);

/// Smallest trace count at which `distinguishing_z(n)` exceeds the
/// `z_threshold`, searched over doubling steps from `start_traces` and
/// refined by bisection between the last failed step and the first
/// passing one (or max_traces, when the doubling overshoots it) to within
/// 1/16; returns max_traces when z(max_traces) does not exceed it.  The z
/// function is expected to be (noisily) increasing in n.
std::size_t measurements_to_disclosure(
    const std::function<double(std::size_t)>& distinguishing_z,
    double z_threshold, std::size_t start_traces, std::size_t max_traces);

} // namespace usca::stats

#endif // USCA_STATS_ATTACK_METRICS_H
