#include "yhccl/copy/cache_model.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "yhccl/common/time.hpp"
#include "yhccl/copy/dispatch.hpp"

namespace yhccl::copy {

namespace {

// Parse a sysfs cache size string like "512K" / "8192K" / "1M".
bool parse_size(const std::string& text, std::size_t& out) {
  if (text.empty()) return false;
  std::size_t v = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    v = v * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i == 0) return false;
  switch (i < text.size() ? text[i] : '\0') {
    case 'K': v <<= 10; break;
    case 'M': v <<= 20; break;
    case 'G': v <<= 30; break;
    default: break;
  }
  out = v;
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::getline(f, out);
  return !out.empty();
}

CacheConfig read_sysfs() {
  CacheConfig cfg;  // generic fallback: 8 MB non-inclusive LLC, 512 KB L2
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/";
  std::size_t best_level = 0;
  std::size_t l2 = 0, llc = 0;
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir = base + "index" + std::to_string(idx) + "/";
    std::string level_s, size_s, type_s;
    if (!read_file(dir + "level", level_s) ||
        !read_file(dir + "size", size_s))
      continue;
    read_file(dir + "type", type_s);
    if (type_s == "Instruction") continue;
    std::size_t size = 0;
    if (!parse_size(size_s, size)) continue;
    const std::size_t level = static_cast<std::size_t>(std::stoi(level_s));
    if (level == 2) l2 = size;
    if (level >= best_level) {
      best_level = level;
      llc = size;
    }
  }
  if (llc != 0) cfg.llc_bytes = llc;
  if (l2 != 0) cfg.l2_per_core = l2;
  return cfg;
}

std::atomic<int> g_probe_runs{0};

using CopyFn = void (*)(void*, const void*, std::size_t);

/// Payload GB/s of the fastest of three `copy(dst, src, n)` calls.
double best_of_3_gbs(CopyFn copy, void* dst, const void* src, std::size_t n) {
  double best = 0;
  for (int i = 0; i < 3; ++i) {
    const double t0 = wall_seconds();
    copy(dst, src, n);
    const double dt = wall_seconds() - t0;
    if (dt > 0) best = std::max(best, static_cast<double>(n) / dt / 1e9);
  }
  return best;
}

/// The sysfs config and its probe, computed once per process.
struct Detected {
  CacheConfig cfg;
  LlcProbe probe;
};

const Detected& detected() {
  static const Detected d = [] {
    Detected x;
    x.cfg = read_sysfs();
    x.probe = probe_llc(x.cfg);
    x.cfg.llc_counts = x.probe.llc_counts;
    return x;
  }();
  return d;
}

}  // namespace

LlcProbe probe_llc(const CacheConfig& cfg) {
  g_probe_runs.fetch_add(1, std::memory_order_relaxed);
  LlcProbe r;
  r.bytes = 4 * cfg.l2_per_core;
  // The scalar tier has no streaming stores to compare against, and a W
  // the LLC cannot hold (or the probe's memory cap) says nothing about it:
  // the paper's C stands.
  const IsaTier tier = detected_isa();
  if (tier == IsaTier::scalar || r.bytes > cfg.llc_bytes ||
      r.bytes > kLlcProbeMaxBytes)
    return r;
  const double t0 = wall_seconds();
  void* mem = mmap(nullptr, r.bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (mem == MAP_FAILED) return r;
  const std::size_t n = r.bytes / 2;
  auto* src = static_cast<std::byte*>(mem);
  std::byte* dst = src + n;
  std::memset(src, 0x5a, n);
  // The raw table of the CPU's best tier: no counters move, and the
  // verdict does not depend on a YHCCL_ISA cap.
  const KernelTable& k = kernel_table(tier);
  k.copy_t(dst, src, n);  // both buffers resident, if the LLC holds them
  r.t_gbs = best_of_3_gbs(k.copy_t, dst, src, n);
  r.nt_gbs = best_of_3_gbs(k.copy_nt, dst, src, n);
  munmap(mem, r.bytes);
  r.ms = (wall_seconds() - t0) * 1e3;
  r.ran = true;
  r.llc_counts = r.t_gbs >= kLlcProbeMinGain * r.nt_gbs;
  return r;
}

CacheConfig CacheConfig::detect() { return detected().cfg; }

const LlcProbe& llc_probe() { return detected().probe; }

int llc_probe_runs() noexcept {
  return g_probe_runs.load(std::memory_order_relaxed);
}

std::string CacheConfig::describe() const {
  std::ostringstream os;
  os << "llc=" << (llc_bytes >> 10) << "KiB ("
     << (llc_inclusive ? "inclusive" : "non-inclusive")
     << (llc_counts ? "" : ", not counted") << "), l2/core="
     << (l2_per_core >> 10) << "KiB, line=" << cacheline << "B";
  return os.str();
}

}  // namespace yhccl::copy
