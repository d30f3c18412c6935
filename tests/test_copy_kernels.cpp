// Unit tests for the copy kernels (§4.1): correctness across sizes and
// alignments, DAV accounting, and the policy decision logic of Algorithm 1.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "yhccl/copy/dav.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/copy/kernels.hpp"
#include "yhccl/copy/policy.hpp"

namespace yc = yhccl::copy;

namespace {

using CopyFn = void (*)(void*, const void*, std::size_t) noexcept;

struct NamedCopy {
  const char* name;
  CopyFn fn;
};

class CopyKernel : public ::testing::TestWithParam<NamedCopy> {};

std::vector<std::uint8_t> pattern(std::size_t n, unsigned seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>((i * 131 + seed * 7 + 13) & 0xff);
  return v;
}

TEST_P(CopyKernel, CopiesExactBytesAcrossSizes) {
  const auto fn = GetParam().fn;
  for (std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{31},
        std::size_t{32}, std::size_t{33}, std::size_t{63}, std::size_t{64},
        std::size_t{127}, std::size_t{1000}, std::size_t{4096},
        std::size_t{65537}, std::size_t{1u << 20}}) {
    const auto src = pattern(n, 1);
    std::vector<std::uint8_t> dst(n + 64, 0xee);
    fn(dst.data(), src.data(), n);
    if (n != 0)  // memcmp with an empty vector's null data() is UB
      ASSERT_EQ(0, std::memcmp(dst.data(), src.data(), n)) << "n=" << n;
    // Guard bytes untouched.
    for (std::size_t i = n; i < n + 64; ++i)
      ASSERT_EQ(dst[i], 0xee) << "overrun at " << i << " (n=" << n << ")";
  }
}

TEST_P(CopyKernel, HandlesMisalignedSourceAndDestination) {
  const auto fn = GetParam().fn;
  const std::size_t n = 8191;
  const auto src = pattern(n + 64, 2);
  std::vector<std::uint8_t> dst(n + 128, 0);
  for (std::size_t soff : {0u, 1u, 7u, 33u}) {
    for (std::size_t doff : {0u, 1u, 7u, 33u}) {
      std::fill(dst.begin(), dst.end(), 0);
      fn(dst.data() + doff, src.data() + soff, n);
      ASSERT_EQ(0, std::memcmp(dst.data() + doff, src.data() + soff, n))
          << "soff=" << soff << " doff=" << doff;
    }
  }
}

TEST_P(CopyKernel, AccountsTwoBytesOfTrafficPerPayloadByte) {
  const auto fn = GetParam().fn;
  const std::size_t n = 123457;
  const auto src = pattern(n, 3);
  std::vector<std::uint8_t> dst(n);
  yc::DavScope scope;
  fn(dst.data(), src.data(), n);
  const auto d = scope.delta();
  EXPECT_EQ(d.loads, n);
  EXPECT_EQ(d.stores, n);
  EXPECT_EQ(d.total(), 2 * n);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, CopyKernel,
    ::testing::Values(NamedCopy{"t_copy", &yc::t_copy},
                      NamedCopy{"nt_copy", &yc::nt_copy},
                      NamedCopy{"scalar_copy", &yc::scalar_copy},
                      NamedCopy{"erms_copy", &yc::erms_copy}),
    [](const auto& info) { return info.param.name; });

TEST(MemmoveModel, SwitchesOnSizeThresholdOnly) {
  // Behavioural check: both regimes must copy correctly.
  for (std::size_t n : {std::size_t{1024}, yc::kMemmoveNtThreshold - 1,
                        yc::kMemmoveNtThreshold,
                        yc::kMemmoveNtThreshold + 4097}) {
    const auto src = pattern(n, 4);
    std::vector<std::uint8_t> dst(n, 0);
    yc::memmove_model_copy(dst.data(), src.data(), n);
    ASSERT_EQ(0, std::memcmp(dst.data(), src.data(), n)) << n;
  }
}

TEST(AdaptivePolicy, TemporalHintAlwaysWinsRegardlessOfWorkingSet) {
  // Algorithm 1: t == true (temporal data) never streams.
  EXPECT_FALSE(yc::use_nt_store(yc::CopyPolicy::adaptive,
                                /*temporal_hint=*/true, /*C=*/1,
                                /*W=*/1u << 30, 4096));
}

TEST(AdaptivePolicy, StreamsOnlyWhenWorkingSetExceedsCache) {
  const std::size_t C = 8u << 20;
  EXPECT_FALSE(yc::use_nt_store(yc::CopyPolicy::adaptive, false, C, C, 4096));
  EXPECT_TRUE(
      yc::use_nt_store(yc::CopyPolicy::adaptive, false, C, C + 1, 4096));
}

TEST(AdaptivePolicy, ForcedArmsIgnoreHints) {
  EXPECT_FALSE(yc::use_nt_store(yc::CopyPolicy::always_temporal, false, 0,
                                1u << 30, 1u << 20));
  EXPECT_TRUE(yc::use_nt_store(yc::CopyPolicy::always_nt, true, 1u << 30, 0,
                               64));
  // memmove arm keys on the copy size alone.
  EXPECT_FALSE(yc::use_nt_store(yc::CopyPolicy::memmove_model, false, 0,
                                1u << 30, yc::kMemmoveNtThreshold - 1));
  EXPECT_TRUE(yc::use_nt_store(yc::CopyPolicy::memmove_model, true, 1u << 30,
                               0, yc::kMemmoveNtThreshold));
}

TEST(AdaptiveCopy, CopiesCorrectlyInBothRegimes) {
  const std::size_t n = 300000;
  const auto src = pattern(n, 5);
  std::vector<std::uint8_t> dst(n, 0);
  // Cache-resident working set: temporal path.
  yc::adaptive_copy(dst.data(), src.data(), n, false, 1u << 30, 1u << 20);
  ASSERT_EQ(0, std::memcmp(dst.data(), src.data(), n));
  std::fill(dst.begin(), dst.end(), 0);
  // Oversized working set + non-temporal destination: streaming path.
  yc::adaptive_copy(dst.data(), src.data(), n, false, 1u << 20, 1u << 30);
  ASSERT_EQ(0, std::memcmp(dst.data(), src.data(), n));
}

TEST(CacheModel, AvailableCapacityFollowsInclusivity) {
  yc::CacheConfig nonincl{.llc_bytes = 64u << 20,
                          .l2_per_core = 1u << 20,
                          .llc_inclusive = false};
  EXPECT_EQ(nonincl.available(8), (64u << 20) + 8 * (1u << 20));
  yc::CacheConfig incl = nonincl;
  incl.llc_inclusive = true;
  EXPECT_EQ(incl.available(8), 64u << 20);
}

TEST(CacheModel, UncountedLlcLeavesThePrivateLevels) {
  yc::CacheConfig nonincl{.llc_bytes = 300u << 20,
                          .l2_per_core = 2u << 20,
                          .llc_inclusive = false};
  nonincl.llc_counts = false;
  yc::CacheConfig incl = nonincl;
  incl.llc_inclusive = true;
  for (const int p : {1, 2, 4, 64}) {
    EXPECT_EQ(nonincl.available(p), static_cast<std::size_t>(p) * (2u << 20));
    EXPECT_EQ(incl.available(p), static_cast<std::size_t>(p) * (2u << 20));
  }
}

TEST(CacheModel, PaperPresetsCountTheLlc) {
  for (const auto& c : {yc::CacheConfig::node_a(), yc::CacheConfig::node_b(),
                        yc::CacheConfig::cluster_c()})
    EXPECT_TRUE(c.llc_counts) << c.describe();
}

TEST(CacheModel, PaperPresetsMatchSection54) {
  // §5.4: C = 294912 KB on NodeA (p=64) and 116736 KB on NodeB (p=48).
  EXPECT_EQ(yc::CacheConfig::node_a().available(64), 294912ull << 10);
  EXPECT_EQ(yc::CacheConfig::node_b().available(48), 116736ull << 10);
}

TEST(CacheModel, DetectReturnsSaneValues) {
  const auto c = yc::CacheConfig::detect();
  EXPECT_GE(c.llc_bytes, 1u << 20);
  EXPECT_GE(c.l2_per_core, 16u << 10);
  EXPECT_EQ(c.cacheline, 64u);
}

TEST(CacheModel, DetectIsMemoizedAndProbesOnce) {
  const auto a = yc::CacheConfig::detect();
  const int runs = yc::llc_probe_runs();
  EXPECT_GE(runs, 1);
  for (int i = 0; i < 5; ++i) {
    const auto b = yc::CacheConfig::detect();
    EXPECT_EQ(b.llc_bytes, a.llc_bytes);
    EXPECT_EQ(b.l2_per_core, a.l2_per_core);
    EXPECT_EQ(b.llc_inclusive, a.llc_inclusive);
    EXPECT_EQ(b.llc_counts, a.llc_counts);
  }
  EXPECT_EQ(yc::llc_probe_runs(), runs);
  // The verdict is the probe's: temporal stores must clearly win.
  const yc::LlcProbe& p = yc::llc_probe();
  EXPECT_EQ(a.llc_counts, p.llc_counts);
  if (p.ran) {
    EXPECT_EQ(p.bytes, 4 * a.l2_per_core);
    EXPECT_LE(p.bytes, yc::kLlcProbeMaxBytes);
    EXPECT_GT(p.nt_gbs, 0);
    EXPECT_EQ(p.llc_counts, p.t_gbs >= yc::kLlcProbeMinGain * p.nt_gbs);
  } else {
    EXPECT_TRUE(p.llc_counts);
  }
}

TEST(CacheModel, ProbeMovesNoCounter) {
  const auto c = yc::CacheConfig::detect();
  yc::DavScope dav;
  yc::KernelCountScope kernels;
  const yc::LlcProbe p = yc::probe_llc(c);
  EXPECT_EQ(dav.delta().total(), 0u);
  EXPECT_EQ(kernels.delta().total(), 0u);
  if (p.ran) EXPECT_GT(p.t_gbs, 0);
}

TEST(CacheModel, ProbeSkipsWorkingSetsItCannotPlace) {
  // W = 4 c'' above the memory cap, or above the LLC itself: no measurement,
  // the paper's C stands.
  const int before = yc::llc_probe_runs();
  for (const auto& c :
       {yc::CacheConfig{.llc_bytes = 256u << 20, .l2_per_core = 8u << 20},
        yc::CacheConfig{.llc_bytes = 2u << 20, .l2_per_core = 1u << 20}}) {
    const yc::LlcProbe p = yc::probe_llc(c);
    EXPECT_FALSE(p.ran);
    EXPECT_TRUE(p.llc_counts);
  }
  EXPECT_EQ(yc::llc_probe_runs(), before + 2);
}

TEST(Dav, ScopeDeltaIsolatesMeasurement) {
  std::vector<std::uint8_t> a(1024), b(1024);
  yc::t_copy(b.data(), a.data(), 1024);  // outside the scope
  yc::DavScope scope;
  yc::t_copy(b.data(), a.data(), 512);
  EXPECT_EQ(scope.delta().total(), 1024u);
}

}  // namespace
