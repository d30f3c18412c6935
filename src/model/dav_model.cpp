#include "yhccl/model/dav_model.hpp"

#include <algorithm>
#include <cmath>

namespace yhccl::model {

namespace {

using u64 = std::uint64_t;

u64 mul(std::size_t s, double factor) {
  return static_cast<u64>(static_cast<double>(s) * factor);
}

/// Rabenseifner's halving series: 1/2 + 1/4 + ... + 1/p == 1 - 1/p.
double halving_series(int p) { return 1.0 - 1.0 / p; }

/// RG tree series: 5k/(k+1) + 3k/(k+1)^2 + ... + 3k/p (levels while
/// (k+1)^i <= p).
double rg_series(int p, int k) {
  double sum = 0;
  double denom = k + 1;
  bool first = true;
  while (denom <= static_cast<double>(p)) {
    sum += (first ? 5.0 : 3.0) * k / denom;
    first = false;
    denom *= (k + 1);
  }
  if (first) sum = 5.0 * k / (k + 1);  // degenerate tiny trees
  return sum;
}

}  // namespace

namespace paper {

u64 ring_reduce_scatter(std::size_t s, int p) {
  return static_cast<u64>(s) * 5 * (p - 1);
}
u64 rabenseifner_reduce_scatter(std::size_t s, int p) {
  return mul(s, 5.0 * p * halving_series(p));
}
u64 dpml_reduce_scatter(std::size_t s, int p) {
  return static_cast<u64>(s) * (5 * static_cast<u64>(p) - 1);
}
u64 ma_reduce_scatter(std::size_t s, int p) {
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) - 1);
}
u64 socket_ma_reduce_scatter(std::size_t s, int p, int m) {
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) + 2 * m - 3);
}

u64 ring_allreduce(std::size_t s, int p) {
  return static_cast<u64>(s) * 7 * (p - 1);
}
u64 rabenseifner_allreduce(std::size_t s, int p) {
  return mul(s, 7.0 * p * halving_series(p));
}
u64 dpml_allreduce(std::size_t s, int p) {
  return static_cast<u64>(s) * (7 * static_cast<u64>(p) - 1);
}
u64 rg_allreduce(std::size_t s, int p, int k) {
  return mul(s, p * (rg_series(p, k) + 2.0));
}
u64 ma_allreduce(std::size_t s, int p) {
  return static_cast<u64>(s) * (5 * static_cast<u64>(p) - 1);
}
u64 socket_ma_allreduce(std::size_t s, int p, int m) {
  return static_cast<u64>(s) * (5 * static_cast<u64>(p) + 2 * m - 3);
}
u64 xpmem_allreduce(std::size_t s, int p) {
  return static_cast<u64>(s) * 5 * (p - 1);
}

u64 dpml_reduce(std::size_t s, int p) {
  return static_cast<u64>(s) * (5 * static_cast<u64>(p) + 1);
}
u64 rg_reduce(std::size_t s, int p, int k) {
  return mul(s, p * rg_series(p, k));
}
u64 ma_reduce(std::size_t s, int p) {
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) + 1);
}
u64 socket_ma_reduce(std::size_t s, int p, int m) {
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) + 2 * m - 1);
}

}  // namespace paper

namespace impl {

u64 ma_reduce_scatter(std::size_t s, int p) {
  return paper::ma_reduce_scatter(s, p);
}
u64 ma_allreduce(std::size_t s, int p) { return paper::ma_allreduce(s, p); }
u64 ma_reduce(std::size_t s, int p) { return paper::ma_reduce(s, p); }

// The socket-combination stage fuses the m per-socket partials in a single
// pass — (m+1)·(s/p) per rank instead of the pairwise chain's 3(m-1)·(s/p)
// the paper's tables assume.  Stage 1 is unchanged at s(3p-m); the total
// therefore loses its m-dependence:
//   s(3p-m) + s(m+1) = s(3p+1).
u64 socket_ma_reduce_scatter(std::size_t s, int p, int m) {
  (void)m;
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) + 1);
}
u64 socket_ma_allreduce(std::size_t s, int p, int m) {
  // reduce-scatter + the 2sp copy-out of the full result on every rank.
  return socket_ma_reduce_scatter(s, p, m) + 2 * static_cast<u64>(s) * p;
}
u64 socket_ma_reduce(std::size_t s, int p, int m) {
  // reduce-scatter + the root's 2s copy-out.
  return socket_ma_reduce_scatter(s, p, m) + 2 * static_cast<u64>(s);
}

// Our DPML delivers the scatter blocks / copy-out directly from the staged
// partials (one copy less than the paper's bookkeeping) and fuses the
// partitioned reduction of the p staged buffers into one (p+1)·(s/p)-byte
// pass per block: copy-in 2sp + fused stage s(p+1) = s(3p+1) for the
// scatter shape (flat/single-socket grouping, as the baseline runs it).
u64 dpml_reduce_scatter(std::size_t s, int p) {
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) + 1);
}
u64 dpml_allreduce(std::size_t s, int p) {
  return dpml_reduce_scatter(s, p) + 2 * static_cast<u64>(s) * p;
}

u64 ring_reduce_scatter_single_copy(std::size_t s, int p) {
  return static_cast<u64>(s) * 5 * (p - 1);  // == paper
}
u64 ring_reduce_scatter_two_copy(std::size_t s, int p) {
  return static_cast<u64>(s) * 7 * (p - 1);  // +2 for the eager copy-in
}
u64 ring_allreduce_single_copy(std::size_t s, int p) {
  return static_cast<u64>(s) * 7 * (p - 1);  // == paper
}
u64 ring_allreduce_two_copy(std::size_t s, int p) {
  return static_cast<u64>(s) * 11 * (p - 1);
}

// Adds the private working-copy initialization (2s per rank) the paper's
// table omits.
u64 rabenseifner_allreduce_single_copy(std::size_t s, int p) {
  return 2 * static_cast<u64>(s) * p + mul(s, 7.0 * (p - 1));
}

u64 xpmem_allreduce(std::size_t s, int p) {
  // Fused p-ary direct reduction s(p+1) + 2s(p-1) block gather.
  return static_cast<u64>(s) * (3 * static_cast<u64>(p) - 1);
}

u64 pipelined_broadcast(std::size_t s, int p) {
  return 2 * static_cast<u64>(s) * p;  // root copy-in + (p-1) copy-outs
}
u64 pipelined_allgather(std::size_t s, int p) {
  // per rank: copy-in 2s + copy-out of all p blocks 2sp.
  return static_cast<u64>(p) * (2 * static_cast<u64>(s) +
                                2 * static_cast<u64>(s) * p);
}

// ---- closed-form operation counts -------------------------------------------
// Booked with the instrumented kernels' rules: a copy loads and stores n,
// an m-ary fused reduction loads m·n and stores n, one dispatch each (an
// m = 1 reduction is a copy); zero-length calls book nothing.  Sync totals
// follow runtime/sync_counts.hpp.

namespace {

struct Book {
  OpCounts c;

  void copy(std::size_t n) { reduce_multi(1, n); }
  void reduce_multi(int m, std::size_t n) {
    if (n == 0) return;
    c.loads += static_cast<u64>(m) * n;
    c.stores += n;
    ++c.kernel_calls;
  }
};

}  // namespace

OpCounts xpmem_allreduce_ops(std::size_t s, int p) {
  Book k;
  if (s == 0) return k.c;
  if (p == 1) {
    k.copy(s);
    return k.c;
  }
  // ceil(s/p) rounded up to a 64-byte cache line, as the arm partitions.
  const std::size_t per_rank =
      (s + static_cast<std::size_t>(p) - 1) / static_cast<std::size_t>(p);
  const std::size_t B = std::max<std::size_t>((per_rank + 63) / 64 * 64, 64);
  auto blen = [&](int b) {
    const std::size_t start = static_cast<std::size_t>(b) * B;
    return start >= s ? std::size_t{0} : std::min(B, s - start);
  };
  k.c.barriers += 3 * static_cast<u64>(p);
  for (int r = 0; r < p; ++r) k.reduce_multi(p, blen(r));
  for (int r = 0; r < p; ++r)
    for (int b = 0; b < p; ++b)
      if (b != r) k.copy(blen(b));
  return k.c;
}

OpCounts slot_allreduce_ops(std::size_t s, int p) {
  Book k;
  if (s == 0) return k.c;
  if (p == 1) {
    k.copy(s);
    return k.c;
  }
  for (int r = 0; r < p; ++r) {
    k.copy(s);  // operand into my slot
    ++k.c.flag_posts;
    k.c.flag_waits += static_cast<u64>(p - 1);
    k.reduce_multi(p, s);  // my slot + p-1 peer slots -> recv
  }
  return k.c;
}

OpCounts slot_reduce_ops(std::size_t s, int p) {
  Book k;
  if (s == 0) return k.c;
  if (p == 1) {
    k.copy(s);
    return k.c;
  }
  for (int r = 1; r < p; ++r) k.copy(s);  // non-roots fill their slots
  k.c.flag_posts += static_cast<u64>(p);
  k.c.flag_waits += static_cast<u64>(p - 1);  // the root's all-wait
  k.reduce_multi(p, s);  // root: send + p-1 slots -> recv
  return k.c;
}

OpCounts slot_broadcast_ops(std::size_t s, int p) {
  Book k;
  if (s == 0 || p == 1) return k.c;
  k.copy(s);  // root fills its slot
  for (int r = 1; r < p; ++r) k.copy(s);  // every other rank copies out
  k.c.flag_posts += static_cast<u64>(p);
  k.c.flag_waits += static_cast<u64>(p - 1);
  return k.c;
}

}  // namespace impl

std::size_t nt_switch_point(std::size_t cache_capacity, int p,
                            std::size_t shm_bytes) {
  if (cache_capacity <= shm_bytes) return 0;
  return (cache_capacity - shm_bytes) / (2 * static_cast<std::size_t>(p));
}

std::size_t nt_switch_point_allreduce(std::size_t cache_capacity, int p,
                                      int m, std::size_t slice_max) {
  return nt_switch_point(cache_capacity, p,
                         static_cast<std::size_t>(m) *
                             static_cast<std::size_t>(p) * slice_max);
}

double time_from_dav(std::uint64_t dav_bytes, double dab_bytes_per_sec) {
  return dab_bytes_per_sec <= 0
             ? 0.0
             : static_cast<double>(dav_bytes) / dab_bytes_per_sec;
}

double predict_us(const impl::OpCounts& node, int p,
                  const CostConstants& k) noexcept {
  const double ranks = std::max(p, 1);
  const double barrier_us =
      p < 2 ? 0.0 : k.barrier_us_per_level * std::log2(p);
  return k.call_us +
         (static_cast<double>(node.barriers) * barrier_us +
          static_cast<double>(node.flag_waits) * k.flag_us +
          static_cast<double>(node.dav()) / k.bytes_per_us) /
             ranks;
}

}  // namespace yhccl::model
