// Example: the analytical models as a tuning advisor.  Given a node
// description (ranks, sockets, cache hierarchy, memory bandwidth), prints
// the Tables 1-3 DAV comparison, the predicted per-collective times, the
// §5.4 non-temporal switch point, and the recommended algorithm per
// message size — i.e. everything YHCCL's runtime switching decides,
// exposed for humans.
//
//   $ ./examples/tuning_advisor [ranks] [sockets] [node_a|node_b|cluster_c|detect]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/copy/cache_model.hpp"
#include "yhccl/model/dav_model.hpp"

using namespace yhccl;
namespace md = yhccl::model;

int main(int argc, char** argv) {
  const int p = argc > 1 ? std::atoi(argv[1]) : 64;
  const int m = argc > 2 ? std::atoi(argv[2]) : 2;
  if (p < 1 || p > rt::kMaxRanks || m < 1 ||
      m > std::min(p, rt::kMaxSockets)) {
    std::fprintf(stderr, "no team has %d ranks over %d sockets\n", p, m);
    return 2;
  }
  copy::CacheConfig cache = copy::CacheConfig::node_a();
  const char* preset = argc > 3 ? argv[3] : "node_a";
  if (std::strcmp(preset, "node_b") == 0) cache = copy::CacheConfig::node_b();
  else if (std::strcmp(preset, "cluster_c") == 0)
    cache = copy::CacheConfig::cluster_c();
  else if (std::strcmp(preset, "detect") == 0)
    cache = copy::CacheConfig::detect();

  std::printf("node: p=%d ranks, m=%d sockets, cache %s\n", p, m,
              cache.describe().c_str());
  if (std::strcmp(preset, "detect") == 0) {
    const copy::LlcProbe& probe = copy::llc_probe();
    if (probe.ran)
      std::printf("LLC probe over %zu KB: t-copy %.2f GB/s, nt-copy %.2f "
                  "GB/s (%.1f ms) -> the LLC %s\n",
                  probe.bytes >> 10, probe.t_gbs, probe.nt_gbs, probe.ms,
                  probe.llc_counts ? "counts" : "does not count");
    else
      std::printf("LLC probe not run -> the LLC counts\n");
  }
  std::printf("available cache C = %s = %.1f MB\n\n",
              !cache.llc_counts    ? "p*c''"
              : cache.llc_inclusive ? "c'"
                                    : "c' + p*c''",
              cache.available(p) / 1e6);

  std::printf("all-reduce DAV (bytes moved per message byte):\n");
  std::printf("  %-24s %6.1f\n", "YHCCL socket-aware MA",
              1.0 * md::paper::socket_ma_allreduce(1, p, m));
  std::printf("  %-24s %6.1f\n", "YHCCL flat MA",
              1.0 * md::paper::ma_allreduce(1, p));
  std::printf("  %-24s %6.1f\n", "DPML",
              1.0 * md::paper::dpml_allreduce(1, p));
  std::printf("  %-24s %6.1f\n", "Ring",
              1.0 * md::paper::ring_allreduce(1, p));
  std::printf("  %-24s %6.1f\n", "XPMEM direct",
              1.0 * md::paper::xpmem_allreduce(1, p));

  const std::size_t imax = 256u << 10;
  const auto sw = md::nt_switch_point_allreduce(cache.available(p), p, m,
                                                imax);
  std::printf("\nnon-temporal switch point (Imax=256KB): stream copy-outs "
              "for s > %.0f KB\n",
              sw / 1024.0);

  // The runtime's own rule: the cost model's switch points for this shape
  // (docs/tuning.md, "How the prior picks an arm"; constants measured on
  // the 4-vCPU reference host, so the times are that host's).
  const coll::CollOpts opts;
  const auto sp =
      coll::plan::switch_points(coll::CollKind::allreduce, p, m, opts);
  std::printf("\nall-reduce switch points: slot up to %zu B, DPML up to "
              "%zu B, MA above\n",
              sp.slot_max, sp.dpml_max);
  std::printf("per-size advice:\n");
  std::printf("  %-10s %-14s %-14s %14s\n", "size", "algorithm", "stores",
              "pred. time(us)");
  const rt::Topology topo(p, m);
  for (std::size_t s = 16u << 10; s <= 256u << 20; s *= 4) {
    const auto alg = coll::plan::choose_algorithm(
        topo, coll::CollKind::allreduce, s, opts);
    const char* stores = s > sw ? "non-temporal" : "temporal";
    std::printf("  %-10.0fKB %-14s %-14s %14.1f\n", s / 1024.0,
                coll::algorithm_name(alg), stores,
                coll::plan::predicted_us(coll::CollKind::allreduce, alg, s,
                                         p, m, opts));
  }
  return 0;
}
