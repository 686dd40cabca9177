/**
 * @file
 * Deterministic RNG, statistics, and string utilities.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strutil.hh"

namespace tsp {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.nextBelow(17);
        EXPECT_LT(v, 17u);
        const int x = rng.intIn(-5, 5);
        EXPECT_GE(x, -5);
        EXPECT_LE(x, 5);
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(3);
    double sum = 0.0, sum2 = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum2 += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(StatGroup, CountersAccumulate)
{
    StatGroup g;
    g.add("x");
    g.add("x", 4);
    g.set("y", 7);
    EXPECT_EQ(g.get("x"), 5u);
    EXPECT_EQ(g.get("y"), 7u);
    EXPECT_EQ(g.get("missing"), 0u);
    g.reset();
    EXPECT_EQ(g.get("x"), 0u);
}

TEST(Histogram, QuantilesAndBounds)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.record(i + 0.5);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.mean(), 50.0, 0.01);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
    EXPECT_EQ(h.minSample(), 0.5);
    EXPECT_EQ(h.maxSample(), 99.5);
    h.record(-10.0); // Clamps into the first bucket.
    EXPECT_EQ(h.buckets().front(), 2u);
}

TEST(Histogram, OutOfRangeSamplesAreCountedAndQuantilesClamped)
{
    Histogram h(0.0, 10.0, 10);
    h.record(5.0);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);

    h.record(-3.0);  // Below lo: clamps into bucket 0, counted.
    h.record(250.0); // At/above hi: clamps into the last bucket.
    h.record(10.0);  // Exactly hi is outside the half-open range.
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 4u);

    for (const double p : {0.0, 0.25, 0.5, 0.75, 0.95, 1.0}) {
        const double q = h.quantile(p);
        EXPECT_GE(q, h.minSample()) << p;
        EXPECT_LE(q, h.maxSample()) << p;
    }

    // Every sample beyond hi: the old code reported the last bucket's
    // midpoint (9.5) — below every recorded sample — for any p. The
    // clamp pins quantiles inside the observed range.
    Histogram sat(0.0, 10.0, 10);
    sat.record(100.0);
    sat.record(200.0);
    EXPECT_EQ(sat.overflow(), 2u);
    EXPECT_EQ(sat.quantile(0.5), 100.0);
    EXPECT_EQ(sat.quantile(0.99), 100.0);
}

TEST(Histogram, DegenerateRangeIsGuarded)
{
    // hi <= lo used to make the bucket width zero: (sample - lo) /
    // width is NaN, and NaN -> long is UB. The guarded histogram
    // widens the range and keeps recording safely.
    Histogram h(5.0, 5.0, 4);
    h.record(5.0);
    h.record(7.0);
    h.record(3.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.minSample(), 3.0);
    EXPECT_EQ(h.maxSample(), 7.0);
    const double q = h.quantile(0.5);
    EXPECT_GE(q, 3.0);
    EXPECT_LE(q, 7.0);

    Histogram inverted(10.0, -10.0, 8);
    inverted.record(0.0);
    EXPECT_EQ(inverted.count(), 1u);

    Histogram no_buckets(0.0, 1.0, 0);
    no_buckets.record(0.5);
    EXPECT_EQ(no_buckets.count(), 1u);
    EXPECT_EQ(no_buckets.buckets().size(), 1u);
}

TEST(StrUtil, TrimSplitParse)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    const auto parts = split("a, b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    const auto ws = splitWs("  x  y\tz ");
    ASSERT_EQ(ws.size(), 3u);
    EXPECT_EQ(ws[2], "z");
    EXPECT_TRUE(iequals("AbC", "aBc"));
    EXPECT_FALSE(iequals("ab", "abc"));
    long v = 0;
    EXPECT_TRUE(parseInt("0x10", v));
    EXPECT_EQ(v, 16);
    EXPECT_TRUE(parseInt("-3", v));
    EXPECT_EQ(v, -3);
    EXPECT_FALSE(parseInt("12x", v));
    EXPECT_FALSE(parseInt("", v));
    // Out of range is rejected, not clamped to LONG_MAX/LONG_MIN.
    v = 5;
    EXPECT_FALSE(parseInt("99999999999999999999", v));
    EXPECT_FALSE(parseInt("-99999999999999999999", v));
    EXPECT_EQ(v, 5); // Untouched on failure.
    EXPECT_TRUE(parseInt("9223372036854775807", v));
    EXPECT_EQ(v, 9223372036854775807L);
    double d = 0.0;
    EXPECT_TRUE(parseDouble("1.5", d));
    EXPECT_DOUBLE_EQ(d, 1.5);
    EXPECT_TRUE(parseDouble(" 1e-5 ", d));
    EXPECT_DOUBLE_EQ(d, 1e-5);
    EXPECT_TRUE(parseDouble("-2", d));
    EXPECT_DOUBLE_EQ(d, -2.0);
    d = 7.0;
    EXPECT_FALSE(parseDouble("1.5x", d)); // Must consume it all.
    EXPECT_FALSE(parseDouble("abc", d));
    EXPECT_FALSE(parseDouble("", d));
    EXPECT_FALSE(parseDouble("1e999", d)); // Overflows to inf.
    EXPECT_FALSE(parseDouble("inf", d));
    EXPECT_FALSE(parseDouble("nan", d));
    EXPECT_DOUBLE_EQ(d, 7.0);
    EXPECT_EQ(strformat("%d-%s", 5, "ok"), "5-ok");
}

} // namespace
} // namespace tsp
