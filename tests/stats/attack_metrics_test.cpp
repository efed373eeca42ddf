#include "stats/attack_metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"

namespace usca::stats {
namespace {

TEST(AttackMetrics, SuccessRateCountsRankZero) {
  // Ranks cycle 0,1,2,0,1,2,...: rank 0 in one third of campaigns.
  const auto rank = [](std::uint64_t seed) {
    return static_cast<std::size_t>(seed % 3);
  };
  EXPECT_NEAR(success_rate(30, rank), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(success_rate(10, [](std::uint64_t) {
                     return std::size_t{0};
                   }),
                   1.0);
}

TEST(AttackMetrics, SuccessRateRejectsNonPositive) {
  EXPECT_THROW(
      success_rate(0, [](std::uint64_t) { return std::size_t{0}; }),
      util::analysis_error);
}

TEST(AttackMetrics, GuessingEntropyAveragesRanks) {
  const auto rank = [](std::uint64_t seed) {
    return static_cast<std::size_t>(seed % 4); // 0,1,2,3 -> mean 1.5
  };
  EXPECT_NEAR(guessing_entropy(40, rank), 1.5, 1e-12);
}

TEST(AttackMetrics, SeedBaseShiftsCampaigns) {
  const auto rank = [](std::uint64_t seed) {
    return static_cast<std::size_t>(seed); // identity
  };
  EXPECT_DOUBLE_EQ(guessing_entropy(1, rank, 7), 7.0);
}

TEST(AttackMetrics, MtdFindsThresholdCrossing) {
  // z(n) = sqrt(n)/10 crosses 2.326 at n ~ 541.
  const auto z = [](std::size_t n) { return std::sqrt(static_cast<double>(n)) / 10.0; };
  const std::size_t mtd = measurements_to_disclosure(z, 2.326, 50, 100'000);
  EXPECT_GE(mtd, 500u);
  EXPECT_LE(mtd, 650u);
}

TEST(AttackMetrics, MtdFindsCrossingPastTheLastDoubling) {
  // z(n) = sqrt(n)/13.6 crosses 2.326 at n ~ 1001: the doubling steps
  // 50..800 all fail and the next one (1600) overshoots max_traces, so
  // the search must bisect between 800 and 1200 instead of reporting
  // "not disclosed".
  const auto z = [](std::size_t n) {
    return std::sqrt(static_cast<double>(n)) / 13.6;
  };
  const std::size_t mtd = measurements_to_disclosure(z, 2.326, 50, 1'200);
  EXPECT_GE(mtd, 1'000u);
  EXPECT_LT(mtd, 1'200u);
}

TEST(AttackMetrics, MtdSaturatesAtMaximum) {
  const auto never = [](std::size_t) { return 0.0; };
  EXPECT_EQ(measurements_to_disclosure(never, 2.326, 100, 1'000), 1'000u);
}

TEST(AttackMetrics, MtdImmediateSuccess) {
  const auto always = [](std::size_t) { return 10.0; };
  const std::size_t mtd = measurements_to_disclosure(always, 2.326, 64, 4096);
  EXPECT_LE(mtd, 64u);
}

TEST(AttackMetrics, MtdRejectsBadRange) {
  const auto z = [](std::size_t) { return 1.0; };
  EXPECT_THROW(measurements_to_disclosure(z, 2.0, 0, 100),
               util::analysis_error);
  EXPECT_THROW(measurements_to_disclosure(z, 2.0, 200, 100),
               util::analysis_error);
}

} // namespace
} // namespace usca::stats
