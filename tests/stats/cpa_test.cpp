#include "stats/cpa.h"

#include <gtest/gtest.h>

#include <cmath>

#include "crypto/aes128.h"
#include "stats/pearson.h"
#include "util/bitops.h"
#include "util/error.h"
#include "util/rng.h"

namespace usca::stats {
namespace {

// Synthetic leaky device: power = HW(sbox[pt ^ key]) + noise at sample 2,
// pure noise elsewhere.
struct synthetic_campaign {
  std::vector<std::uint8_t> plaintexts;
  std::vector<std::vector<double>> traces;
};

synthetic_campaign make_campaign(std::uint8_t key, std::size_t n,
                                 double noise_sigma, std::uint64_t seed) {
  synthetic_campaign c;
  util::xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t pt = rng.next_u8();
    c.plaintexts.push_back(pt);
    std::vector<double> trace(5);
    for (auto& v : trace) {
      v = noise_sigma * rng.next_gaussian();
    }
    trace[2] += util::hamming_weight(
        crypto::subbytes_hypothesis(pt, key));
    c.traces.push_back(std::move(trace));
  }
  return c;
}

double hypothesis(std::size_t guess, std::size_t pt) {
  return util::hamming_weight(crypto::subbytes_hypothesis(
      static_cast<std::uint8_t>(pt), static_cast<std::uint8_t>(guess)));
}

TEST(CpaEngine, RecoversPlantedKey) {
  const std::uint8_t key = 0x2b;
  const auto campaign = make_campaign(key, 2000, 1.0, 9);
  cpa_engine engine(5, 256);
  std::vector<double> h(256);
  for (std::size_t i = 0; i < campaign.traces.size(); ++i) {
    for (std::size_t g = 0; g < 256; ++g) {
      h[g] = hypothesis(g, campaign.plaintexts[i]);
    }
    engine.add_trace(campaign.traces[i], h);
  }
  const cpa_result result = engine.solve();
  const auto best = result.best();
  EXPECT_EQ(best.guess, key);
  EXPECT_EQ(best.sample, 2u);
  EXPECT_GT(std::fabs(best.corr), 0.5);
  EXPECT_EQ(result.rank_of(key), 0u);
}

TEST(PartitionedCpa, MatchesNaiveEngineExactly) {
  const std::uint8_t key = 0xc7;
  const auto campaign = make_campaign(key, 1500, 2.0, 17);

  cpa_engine naive(5, 256);
  partitioned_cpa fast(5);
  std::vector<double> h(256);
  for (std::size_t i = 0; i < campaign.traces.size(); ++i) {
    for (std::size_t g = 0; g < 256; ++g) {
      h[g] = hypothesis(g, campaign.plaintexts[i]);
    }
    naive.add_trace(campaign.traces[i], h);
    fast.add_trace(campaign.plaintexts[i], campaign.traces[i]);
  }
  const cpa_result a = naive.solve();
  const cpa_result b = fast.solve(hypothesis, 256);
  ASSERT_EQ(a.corr.size(), b.corr.size());
  for (std::size_t g = 0; g < 256; ++g) {
    for (std::size_t s = 0; s < 5; ++s) {
      ASSERT_NEAR(a.corr[g][s], b.corr[g][s], 1e-9)
          << "guess=" << g << " sample=" << s;
    }
  }
}

TEST(PartitionedCpa, RecoversKeyUnderHeavyNoise) {
  const std::uint8_t key = 0x3d;
  const auto campaign = make_campaign(key, 20'000, 8.0, 23);
  partitioned_cpa cpa(5);
  for (std::size_t i = 0; i < campaign.traces.size(); ++i) {
    cpa.add_trace(campaign.plaintexts[i], campaign.traces[i]);
  }
  const cpa_result result = cpa.solve(hypothesis, 256);
  EXPECT_EQ(result.best().guess, key);
}

TEST(CpaResult, DistinguishingZGrowsWithTraces) {
  const std::uint8_t key = 0x51;
  partitioned_cpa small(5);
  partitioned_cpa large(5);
  const auto campaign = make_campaign(key, 10'000, 3.0, 31);
  for (std::size_t i = 0; i < campaign.traces.size(); ++i) {
    if (i < 1000) {
      small.add_trace(campaign.plaintexts[i], campaign.traces[i]);
    }
    large.add_trace(campaign.plaintexts[i], campaign.traces[i]);
  }
  const double z_small = small.solve(hypothesis, 256).distinguishing_z(key);
  const double z_large = large.solve(hypothesis, 256).distinguishing_z(key);
  EXPECT_GT(z_large, z_small);
  EXPECT_GT(z_large, 2.326); // >99% confidence
}

TEST(CpaResult, RankOfWrongKeyIsWorseThanCorrect) {
  const std::uint8_t key = 0x99;
  const auto campaign = make_campaign(key, 5000, 2.0, 37);
  partitioned_cpa cpa(5);
  for (std::size_t i = 0; i < campaign.traces.size(); ++i) {
    cpa.add_trace(campaign.plaintexts[i], campaign.traces[i]);
  }
  const cpa_result result = cpa.solve(hypothesis, 256);
  EXPECT_EQ(result.rank_of(key), 0u);
  const auto wrong = result.best_excluding(key);
  EXPECT_LT(std::fabs(wrong.corr), std::fabs(result.peak_of(key).corr));
}

TEST(CpaEngine, DimensionMismatchThrows) {
  cpa_engine engine(4, 8);
  const std::vector<double> trace(3, 0.0);
  const std::vector<double> h(8, 0.0);
  EXPECT_THROW(engine.add_trace(trace, h), util::analysis_error);
  const std::vector<double> trace4(4, 0.0);
  const std::vector<double> h7(7, 0.0);
  EXPECT_THROW(engine.add_trace(trace4, h7), util::analysis_error);
}

TEST(PartitionedCpa, TraceLengthMismatchThrows) {
  // add_batch() accepts a stride longer than the trace length; a single
  // trace must still match it exactly, shorter or longer.
  partitioned_cpa cpa(4);
  const std::vector<double> shorter(3, 0.0);
  const std::vector<double> longer(5, 0.0);
  EXPECT_THROW(cpa.add_trace(0, shorter), util::analysis_error);
  EXPECT_THROW(cpa.add_trace(0, longer), util::analysis_error);
  EXPECT_EQ(cpa.traces(), 0u);
  cpa.add_trace(0, std::vector<double>(4, 0.0));
  EXPECT_EQ(cpa.traces(), 1u);
}

TEST(CpaEngine, TooFewTracesGivesZeroCorrelations) {
  cpa_engine engine(2, 4);
  const std::vector<double> trace = {1.0, 2.0};
  const std::vector<double> h = {1, 2, 3, 4};
  engine.add_trace(trace, h);
  const cpa_result r = engine.solve();
  EXPECT_EQ(r.corr[0][0], 0.0);
}

} // namespace
} // namespace usca::stats
