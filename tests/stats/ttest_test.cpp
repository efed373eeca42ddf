#include "stats/ttest.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace usca::stats {
namespace {

TEST(WelchT, KnownTwoSampleValue) {
  // Group A: {1,2,3,4,5}, Group B: {2,4,6,8,10}.
  running_stats a;
  running_stats b;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    a.add(v);
  }
  for (const double v : {2.0, 4.0, 6.0, 8.0, 10.0}) {
    b.add(v);
  }
  const welch_result r = welch_t(a, b);
  // t = (3-6)/sqrt(2.5/5 + 10/5) = -3/sqrt(2.5) = -1.897366...
  EXPECT_NEAR(r.t, -1.897366596, 1e-6);
  EXPECT_GT(r.dof, 5.0);
  EXPECT_LT(r.dof, 8.0);
}

TEST(WelchT, DegenerateGroups) {
  running_stats a;
  running_stats b;
  EXPECT_EQ(welch_t(a, b).t, 0.0);
  a.add(1.0);
  a.add(1.0);
  b.add(1.0);
  b.add(1.0);
  EXPECT_EQ(welch_t(a, b).t, 0.0); // zero variance in both groups
}

TEST(Tvla, DetectsMeanDifference) {
  util::xoshiro256 rng(42);
  tvla_accumulator acc(8);
  // Sample 3 carries a fixed-vs-random mean difference; others are null.
  for (int i = 0; i < 4000; ++i) {
    std::vector<double> fixed(8);
    std::vector<double> random(8);
    for (int s = 0; s < 8; ++s) {
      fixed[static_cast<std::size_t>(s)] = rng.next_gaussian();
      random[static_cast<std::size_t>(s)] = rng.next_gaussian();
    }
    fixed[3] += 0.5;
    acc.add_fixed(fixed);
    acc.add_random(random);
  }
  EXPECT_GT(std::fabs(acc.at(3).t), 4.5);
  EXPECT_EQ(acc.leaking_samples(4.5), 1u);
  EXPECT_GT(acc.max_abs_t(), 4.5);
}

TEST(Tvla, NullDataStaysBelowThreshold) {
  util::xoshiro256 rng(7);
  tvla_accumulator acc(16);
  for (int i = 0; i < 2000; ++i) {
    std::vector<double> t(16);
    for (auto& v : t) {
      v = rng.next_gaussian();
    }
    if (i % 2 == 0) {
      acc.add_fixed(t);
    } else {
      acc.add_random(t);
    }
  }
  EXPECT_EQ(acc.leaking_samples(4.5), 0u);
}

TEST(Tvla, TraceLengthMismatchThrows) {
  // add_batch() accepts a stride longer than the trace length; a single
  // trace must still match it exactly, shorter or longer.
  tvla_accumulator acc(4);
  const std::vector<double> shorter(3, 0.0);
  const std::vector<double> longer(5, 0.0);
  EXPECT_THROW(acc.add_fixed(shorter), util::analysis_error);
  EXPECT_THROW(acc.add_fixed(longer), util::analysis_error);
  EXPECT_THROW(acc.add_random(shorter), util::analysis_error);
  EXPECT_THROW(acc.add_random(longer), util::analysis_error);
}

TEST(Tvla, AbsTHasOnePerSample) {
  tvla_accumulator acc(5);
  EXPECT_EQ(acc.abs_t().size(), 5u);
  EXPECT_EQ(acc.max_abs_t(), 0.0);
}

} // namespace
} // namespace usca::stats
