// Additional cross-cutting property tests over the stats layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/rng.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/ecdf.h"
#include "stats/fft.h"
#include "stats/histogram.h"
#include "stats/kernels/dispatch.h"
#include "stats/periodicity.h"
#include "stats/series.h"

namespace cloudlens::stats {
namespace {

class QuantileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileProperty, MonotoneInPAndBounded) {
  Rng rng(GetParam());
  std::vector<double> xs(257);
  for (auto& x : xs) x = rng.lognormal(1.0, 2.0);
  double prev = -1e300;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const double q = quantile(xs, p);
    EXPECT_GE(q, prev);
    prev = q;
  }
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), *std::max_element(xs.begin(), xs.end()));
}

TEST_P(QuantileProperty, EcdfInverseIsRightInverse) {
  Rng rng(GetParam() + 1);
  std::vector<double> xs(400);
  for (auto& x : xs) x = rng.normal(0, 3);
  const Ecdf e(xs);
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    // F(F^-1(p)) >= p always holds for the empirical CDF.
    EXPECT_GE(e.at(e.inverse(p)), p - 1e-9);
  }
}

// quantile() selects its two order statistics instead of sorting; the
// result must equal the full-sort reference bit for bit, duplicates and
// the size-1 and p = 0 / 1 edges included.
TEST_P(QuantileProperty, SelectionMatchesSortReferenceBitForBit) {
  Rng rng(GetParam() + 2);
  std::vector<std::size_t> sizes = {1, 2, 3, 4096};
  for (int i = 0; i < 40; ++i) sizes.push_back(1 + rng.uniform_int(4096));
  for (const std::size_t n : sizes) {
    // A small pool of integer values forces runs of duplicates; the rest
    // are continuous draws of either sign.
    const double pool = static_cast<double>(1 + rng.uniform_int(n));
    const double dup_share = rng.uniform();
    std::vector<double> xs(n);
    for (auto& x : xs)
      x = rng.uniform() < dup_share ? std::floor(rng.uniform(0.0, pool))
                                    : rng.normal(0.0, 3.0);
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 0.05, 0.25, 0.5, 0.95, 1.0}) {
      const double want = quantile_sorted(sorted, p);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(quantile(xs, p)),
                std::bit_cast<std::uint64_t>(want))
          << "n=" << n << " p=" << p;
      std::vector<double> reordered = xs;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(quantile_in_place(reordered, p)),
                std::bit_cast<std::uint64_t>(want))
          << "in place, n=" << n << " p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileProperty,
                         ::testing::Values(1, 7, 23, 91));

TEST(HistogramEcdfConsistency, CumulativeMatchesEcdfAtEdges) {
  Rng rng(5);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.uniform(0.0, 10.0);
  Histogram1D h(0, 10, 20);
  for (const double x : xs) h.add(x);
  const Ecdf e(xs);
  const auto cum = h.cumulative();
  for (std::size_t b = 0; b < h.axis().bins(); ++b) {
    // The histogram's cumulative value at a bin equals the ECDF evaluated
    // just below the upper edge (up to items sitting exactly on the edge).
    EXPECT_NEAR(cum[b], e.at(h.axis().upper_edge(b) - 1e-9), 0.01);
  }
}

TEST(UniformIntUnbiased, NonPowerOfTwoRange) {
  // Lemire rejection must not bias any residue class for n not a power
  // of two.
  Rng rng(6);
  constexpr std::uint64_t n = 6;
  std::array<int, n> hits{};
  const int draws = 120000;
  for (int i = 0; i < draws; ++i) ++hits[rng.uniform_int(n)];
  for (const int h : hits) {
    EXPECT_NEAR(double(h) / draws, 1.0 / double(n), 0.006);
  }
}

class PeriodicityNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(PeriodicityNoiseSweep, DailySignalSurvivesNoise) {
  const double sigma = GetParam();
  Rng rng(17);
  TimeSeries s(week_telemetry_grid());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double phase =
        2.0 * std::numbers::pi * double(s.grid().at(i)) / double(kDay);
    s[i] = 0.3 + 0.15 * std::sin(phase) + rng.normal(0, sigma);
  }
  const auto detection = detect_period(s);
  ASSERT_TRUE(detection.periodic) << "sigma=" << sigma;
  EXPECT_NEAR(double(detection.period), double(kDay), double(kDay) * 0.1);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, PeriodicityNoiseSweep,
                         ::testing::Values(0.01, 0.05, 0.10, 0.15));

TEST(SummaryConsistency, SummaryAgreesWithDirectQuantiles) {
  Rng rng(8);
  std::vector<double> xs(999);
  for (auto& x : xs) x = rng.gamma(2.0, 3.0);
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.p50, quantile(xs, 0.5));
  EXPECT_DOUBLE_EQ(s.p95, quantile(xs, 0.95));
  EXPECT_NEAR(s.mean, mean(xs), 1e-12);
  EXPECT_LE(s.min, s.p25);
  EXPECT_LE(s.p25, s.p50);
  EXPECT_LE(s.p50, s.p75);
  EXPECT_LE(s.p75, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

// --- Kernel-tier invariants ----------------------------------------------
//
// pearson_fused and periodicity_score_acf now run through the dispatched
// kernel seam, so their mathematical invariants are asserted under EVERY
// (tier, mode) this machine can execute — a property regression in one
// SIMD variant fails here by name.

/// Restores the dispatch config (and re-resolves from the environment)
/// when a per-tier test block finishes.
class DispatchRestore {
 public:
  ~DispatchRestore() { kernels::reset_from_env(); }
};

std::vector<kernels::Config> runnable_kernel_configs() {
  std::vector<kernels::Config> configs;
  for (const auto tier :
       {kernels::Tier::kScalar, kernels::Tier::kSse2, kernels::Tier::kAvx2}) {
    if (!kernels::tier_supported(tier)) continue;
    configs.push_back({tier, kernels::Mode::kStrict});
    configs.push_back({tier, kernels::Mode::kFast});
  }
  return configs;
}

std::string config_label(kernels::Config c) {
  return std::string(kernels::to_string(c.tier)) + "/" +
         std::string(kernels::to_string(c.mode));
}

class PearsonKernelProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PearsonKernelProperty, SymmetricScaleInvariantAndBounded) {
  Rng rng(GetParam());
  const std::size_t n = 2016;  // one telemetry week
  std::vector<double> x(n), y(n), x2(n), x_shift(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = 0.6 * x[i] + 0.4 * rng.uniform();
    x2[i] = 2.0 * x[i];        // exact power-of-two scaling
    x_shift[i] = x[i] + 0.5;   // translation
  }
  DispatchRestore restore;
  for (const auto config : runnable_kernel_configs()) {
    SCOPED_TRACE(config_label(config));
    kernels::set_active(config);
    const double r = pearson_fused(x, y);
    EXPECT_LE(std::fabs(r), 1.0);
    // Argument symmetry is exact in both modes: swapping x and y swaps
    // sx/sy and sxx/syy, and every product is commutative bit-for-bit.
    EXPECT_EQ(r, pearson_fused(y, x));
    // Scaling by a power of two rescales every co-moment exactly, so the
    // correlation is bit-identical, not merely close.
    EXPECT_EQ(r, pearson_fused(x2, y));
    // Translation invariance is only approximate in the one-pass
    // formulation (cancellation in sxx - sx^2/n grows with the offset).
    EXPECT_NEAR(r, pearson_fused(x_shift, y), 1e-9);
    // Perfect self-correlation, degenerate-variance guard.
    EXPECT_EQ(pearson_fused(x, x), 1.0);
    const std::vector<double> constant(n, 0.25);
    EXPECT_EQ(pearson_fused(x, constant), 0.0);
  }
}

TEST_P(PearsonKernelProperty, FastModeStaysWithinDocumentedTolerance) {
  Rng rng(GetParam() + 99);
  const std::size_t n = 2016;
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  DispatchRestore restore;
  kernels::set_active({kernels::Tier::kScalar, kernels::Mode::kStrict});
  const double reference = pearson_fused(x, y);
  for (const auto config : runnable_kernel_configs()) {
    kernels::set_active(config);
    if (config.mode == kernels::Mode::kStrict) {
      // Strict mode pins every tier to the scalar bytes.
      EXPECT_EQ(pearson_fused(x, y), reference) << config_label(config);
    } else {
      EXPECT_NEAR(pearson_fused(x, y), reference, 1e-9)
          << config_label(config);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PearsonKernelProperty,
                         ::testing::Values(11u, 23u, 47u));

TEST(PeriodicityKernelProperty, AcfInvariantsHoldAtEveryTier) {
  // A clean daily sinusoid with mild noise, sampled at the telemetry
  // interval for two weeks.
  const std::size_t n = 2 * 2016;
  Rng rng(5);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * double(kTelemetryInterval);
    xs[i] = 0.5 + 0.3 * std::sin(2.0 * std::numbers::pi * t / double(kDay)) +
            0.02 * rng.normal(0, 1);
  }
  DispatchRestore restore;
  kernels::set_active({kernels::Tier::kScalar, kernels::Mode::kStrict});
  const std::vector<double> acf_reference = autocorrelation(xs);
  const double score_reference =
      periodicity_score_acf(acf_reference, kTelemetryInterval, kDay);
  EXPECT_GT(score_reference, 0.5);  // the planted period is detected

  for (const auto config : runnable_kernel_configs()) {
    SCOPED_TRACE(config_label(config));
    kernels::set_active(config);
    const std::vector<double> acf = autocorrelation(xs);
    ASSERT_EQ(acf.size(), n);
    // ACF(0) is exactly 1 by construction (buf[0] / buf[0]).
    EXPECT_EQ(acf[0], 1.0);
    // Normalized ACF is bounded for a real series.
    for (const double a : acf) EXPECT_LE(std::fabs(a), 1.0 + 1e-9);
    // The butterfly kernel is bit-exact at every tier in both modes, so
    // the whole ACF — and therefore the score — must match scalar bytes.
    for (std::size_t lag = 0; lag < n; ++lag)
      ASSERT_EQ(acf[lag], acf_reference[lag]) << "lag " << lag;
    EXPECT_EQ(periodicity_score_acf(acf, kTelemetryInterval, kDay),
              score_reference);
    // A period that was not planted scores worse than the planted one.
    EXPECT_LT(periodicity_score_acf(acf, kTelemetryInterval, kHour),
              score_reference);
  }
}

}  // namespace
}  // namespace cloudlens::stats
