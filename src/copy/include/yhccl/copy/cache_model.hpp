// Cache capacity model (paper §4.2).
//
// The adaptive-copy heuristic needs the cache capacity available to a
// collective running on p cores.  On a non-inclusive last-level cache the
// usable capacity is C = c' + p * c'' (LLC plus the per-core second-last
// level), on an inclusive LLC it is just C = c'.
//
// The rule assumes the collective can use the LLC.  A guest VM can be shown
// the host socket's LLC through sysfs and cpuid and yet not get it, so
// detect() measures before it believes: c' counts only when a one-time probe
// finds temporal stores over a working set outside the private cache but
// inside the reported LLC clearly faster than streaming ones.  Otherwise
// C = p * c'' (llc_counts == false).
#pragma once

#include <cstddef>
#include <string>

namespace yhccl::copy {

struct CacheConfig {
  std::size_t llc_bytes = 8u << 20;      ///< c': last-level cache capacity
  std::size_t l2_per_core = 512u << 10;  ///< c'': second-last level, per core
  bool llc_inclusive = false;            ///< inclusive LLC? (then C = c')
  std::size_t cacheline = 64;
  /// Does c' count toward C?  false when the LLC probe found temporal
  /// stores no faster than streaming ones (see llc_probe()).
  bool llc_counts = true;

  /// Capacity available to a collective using `p` cores: the paper's
  /// C = c' + p*c'' (non-inclusive) or C = c' (inclusive); p*c'' when the
  /// LLC does not count.
  std::size_t available(int p) const noexcept {
    const std::size_t private_bytes =
        static_cast<std::size_t>(p) * l2_per_core;
    if (!llc_counts) return private_bytes;
    return llc_inclusive ? llc_bytes : llc_bytes + private_bytes;
  }

  // --- Presets for the paper's three evaluation platforms -----------------

  /// NodeA: 2x AMD EPYC 7452 — 256 MB non-inclusive L3 per CPU (the paper
  /// uses the full-node figure in §5.4), 512 KB inclusive L2 per core.
  static CacheConfig node_a() {
    return {.llc_bytes = 256u << 20,
            .l2_per_core = 512u << 10,
            .llc_inclusive = false};
  }

  /// NodeB: 2x Intel Xeon Platinum 8163 — 66 MB non-inclusive L3, 1 MB L2.
  static CacheConfig node_b() {
    return {.llc_bytes = 66u << 20,
            .l2_per_core = 1u << 20,
            .llc_inclusive = false};
  }

  /// ClusterC: 2x Intel Xeon E5-2692 v2 — 60 MB inclusive L3.
  static CacheConfig cluster_c() {
    return {.llc_bytes = 60u << 20,
            .l2_per_core = 256u << 10,
            .llc_inclusive = true};
  }

  /// Best-effort detection from /sys (falling back to a small generic
  /// configuration when sysfs is unavailable, e.g. in containers), with
  /// llc_counts set by llc_probe().  Computed once per process.
  static CacheConfig detect();

  std::string describe() const;
};

/// A temporal copy must beat a streaming one by this factor over the probe's
/// working set for the LLC to count.
inline constexpr double kLlcProbeMinGain = 1.25;

/// The probe's two buffers together never exceed this.
inline constexpr std::size_t kLlcProbeMaxBytes = 16u << 20;

/// The one-time measurement behind CacheConfig::detect().llc_counts: the
/// best of 3 temporal copies against the best of 3 streaming copies between
/// two buffers of 2*c'' each (W = 4*c'', outside the private cache, inside
/// the reported LLC), through the raw kernel table of the CPU's best ISA
/// tier, so no DAV, kernel-call or happens-before counter moves.
struct LlcProbe {
  bool ran = false;          ///< false: skipped (see probe_llc)
  std::size_t bytes = 0;     ///< W, both buffers together
  double t_gbs = 0;          ///< temporal copy, GB/s of payload
  double nt_gbs = 0;         ///< streaming copy, GB/s of payload
  double ms = 0;             ///< wall time of the probe, buffers included
  bool llc_counts = true;    ///< !ran || t_gbs >= kLlcProbeMinGain * nt_gbs
};

/// Run one probe now for cfg's c' and c''.  It skips (ran == false, the
/// LLC counts) when the CPU has no streaming stores, W exceeds c' or
/// kLlcProbeMaxBytes, or the buffers cannot be mapped.
LlcProbe probe_llc(const CacheConfig& cfg);

/// The probe of this process's detect(), run on first use.
const LlcProbe& llc_probe();

/// How many times this process has called probe_llc(); detect() adds one,
/// on its first call only.
int llc_probe_runs() noexcept;

}  // namespace yhccl::copy
