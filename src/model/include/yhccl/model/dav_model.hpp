// Analytical data-access-volume (DAV) models — paper Tables 1, 2, 3 — plus
// the NT-store switch-point model of §5.4, a DAV/DAB time estimator and the
// op-count cost model the algorithm switch points are derived from.
//
// Two families:
//  * `paper::` — the formulas exactly as printed in the paper's tables.
//  * `impl::`  — the byte-exact accounting of *this repository's*
//    implementations, validated against the instrumented kernels in
//    tests/test_dav_models.cpp.  They differ from `paper::` in constant
//    bookkeeping terms (e.g. the paper ignores Rabenseifner's working-copy
//    initialization and counts one extra copy for DPML) and — since the
//    single-pass m-ary fused reduction kernels — in the socket-combination
//    term: fusing m partials costs (m+1)·n instead of the pairwise chain's
//    3n(m-1), which removes the 2m-dependence from the socket-aware
//    formulas entirely.  The asymptotic p-dependence is identical.
//
// All functions take the message size `s` in bytes and return bytes moved
// per node (summed over the p ranks).
#pragma once

#include <cstddef>
#include <cstdint>

namespace yhccl::model {

namespace paper {

// ---- Table 1: reduce-scatter -----------------------------------------------
std::uint64_t ring_reduce_scatter(std::size_t s, int p);          // 5s(p-1)
std::uint64_t rabenseifner_reduce_scatter(std::size_t s, int p);  // 5sp(1-1/p)
std::uint64_t dpml_reduce_scatter(std::size_t s, int p);          // s(5p-1)
std::uint64_t ma_reduce_scatter(std::size_t s, int p);            // s(3p-1)
std::uint64_t socket_ma_reduce_scatter(std::size_t s, int p, int m);

// ---- Table 2: all-reduce -----------------------------------------------------
std::uint64_t ring_allreduce(std::size_t s, int p);          // 7s(p-1)
std::uint64_t rabenseifner_allreduce(std::size_t s, int p);  // 7sp(1-1/p)
std::uint64_t dpml_allreduce(std::size_t s, int p);          // s(7p-1)
std::uint64_t rg_allreduce(std::size_t s, int p, int k);
std::uint64_t ma_allreduce(std::size_t s, int p);  // s(5p-1)
std::uint64_t socket_ma_allreduce(std::size_t s, int p, int m);
std::uint64_t xpmem_allreduce(std::size_t s, int p);  // 5s(p-1), §5.5

// ---- Table 3: reduce ----------------------------------------------------------
std::uint64_t dpml_reduce(std::size_t s, int p);  // s(5p+1)
std::uint64_t rg_reduce(std::size_t s, int p, int k);
std::uint64_t ma_reduce(std::size_t s, int p);  // s(3p+1)
std::uint64_t socket_ma_reduce(std::size_t s, int p, int m);

}  // namespace paper

namespace impl {

// Byte-exact models of this repo's implementations (divisible geometry:
// blocks a multiple of the slice, slice cacheline-aligned).
std::uint64_t ma_reduce_scatter(std::size_t s, int p);  // s(3p-1), exact
std::uint64_t socket_ma_reduce_scatter(std::size_t s, int p, int m);  // s(3p+1)
std::uint64_t ma_allreduce(std::size_t s, int p);  // s(5p-1), exact
std::uint64_t socket_ma_allreduce(std::size_t s, int p, int m);  // s(5p+1)
std::uint64_t ma_reduce(std::size_t s, int p);  // s(3p+1), exact
std::uint64_t socket_ma_reduce(std::size_t s, int p, int m);  // s(3p+3)
std::uint64_t dpml_reduce_scatter(std::size_t s, int p);  // s(3p+1), fused
std::uint64_t dpml_allreduce(std::size_t s, int p);       // s(5p+1), fused
std::uint64_t ring_reduce_scatter_single_copy(std::size_t s, int p);
std::uint64_t ring_reduce_scatter_two_copy(std::size_t s, int p);
std::uint64_t ring_allreduce_single_copy(std::size_t s, int p);
std::uint64_t ring_allreduce_two_copy(std::size_t s, int p);
std::uint64_t rabenseifner_allreduce_single_copy(std::size_t s, int p);
std::uint64_t xpmem_allreduce(std::size_t s, int p);  // s(3p-1), fused
std::uint64_t pipelined_broadcast(std::size_t s, int p);   // 2s + 2s(p-1)
std::uint64_t pipelined_allgather(std::size_t s, int p);   // p(2s + 2sp)

// ---- operation-count simulators ---------------------------------------------
// Exact node totals (summed over all p ranks) of every deterministic
// counter the runtime instruments: DAV bytes (copy/dav.hpp), kernel
// dispatches (copy/isa.hpp) and sync operations (runtime/sync_counts.hpp).
// Unlike the closed-form byte models above — which assume divisible
// geometry — these replay each implementation's loop structure over the
// same BlockSlicing arithmetic, so they are exact for ragged tails, odd
// rank counts and s not a multiple of p·slice too.  The bench comparator
// and the CI perf-smoke leg gate on them (docs/benchmarking.md).

struct OpGeometry {
  int p = 1;                           ///< team ranks
  int m = 1;                           ///< sockets (Topology(p, m))
  std::size_t slice_max = 256u << 10;  ///< CollOpts::slice_max
  std::size_t slice_min = 64;          ///< CollOpts::slice_min
  std::size_t dpml_chunk = 32u << 10;  ///< CollOpts::dpml_chunk
  std::size_t scratch_bytes = 64u << 20;  ///< TeamConfig::scratch_bytes
  bool dpml_flat = false;              ///< CollOpts::dpml_flat
};

struct OpCounts {
  std::uint64_t loads = 0;         ///< DAV bytes read
  std::uint64_t stores = 0;        ///< DAV bytes written
  std::uint64_t kernel_calls = 0;  ///< copy/reduce kernel dispatches
  std::uint64_t barriers = 0;      ///< barrier arrivals (all ranks)
  std::uint64_t flag_posts = 0;    ///< progress-flag publishes
  std::uint64_t flag_waits = 0;    ///< progress-flag waits

  std::uint64_t dav() const noexcept { return loads + stores; }
  std::uint64_t sync() const noexcept {
    return barriers + flag_posts + flag_waits;
  }
  bool operator==(const OpCounts&) const noexcept = default;
};

// `s` follows the byte-model convention: the reduce-scatter input vector
// (p·count·esize) for *_reduce_scatter, the per-rank message otherwise.
OpCounts ma_reduce_scatter_ops(std::size_t s, const OpGeometry& g);
OpCounts ma_allreduce_ops(std::size_t s, const OpGeometry& g);
OpCounts ma_reduce_ops(std::size_t s, const OpGeometry& g);
OpCounts socket_ma_reduce_scatter_ops(std::size_t s, const OpGeometry& g);
OpCounts socket_ma_allreduce_ops(std::size_t s, const OpGeometry& g);
OpCounts socket_ma_reduce_ops(std::size_t s, const OpGeometry& g);
OpCounts dpml_reduce_scatter_ops(std::size_t s, const OpGeometry& g);
OpCounts dpml_allreduce_ops(std::size_t s, const OpGeometry& g);
OpCounts dpml_reduce_ops(std::size_t s, const OpGeometry& g);
OpCounts pipelined_broadcast_ops(std::size_t s, const OpGeometry& g);
OpCounts pipelined_allgather_ops(std::size_t s, const OpGeometry& g);
OpCounts xpmem_allreduce_ops(std::size_t s, const OpGeometry& g);
// Single-sync slot arm (coll/slot.cpp; s within rt::slot_capacity(p), not
// in place): writers copy s into their slot and post one flag, readers
// wait for the writers' flags and fold or copy out — no barrier.
OpCounts slot_allreduce_ops(std::size_t s, const OpGeometry& g);
OpCounts slot_reduce_ops(std::size_t s, const OpGeometry& g);
OpCounts slot_broadcast_ops(std::size_t s, const OpGeometry& g);

}  // namespace impl

/// §5.4: message size beyond which the adaptive policy starts streaming
/// the copy-outs of the MA all-reduce:
///   W = 2sp + shm  >  C   <=>   s > (C - shm) / (2p),
/// where shm is the shared-buffer term (m*p*Imax for the socket-aware
/// variant; the paper's worked numbers in §5.4 plug in p*Imax).
/// Returns 0 when the cache is so small every size streams.
std::size_t nt_switch_point(std::size_t cache_capacity, int p,
                            std::size_t shm_bytes);
std::size_t nt_switch_point_allreduce(std::size_t cache_capacity, int p,
                                      int m, std::size_t slice_max);

/// Predicted wall time from DAV and a measured memory bandwidth (DAB).
double time_from_dav(std::uint64_t dav_bytes, double dab_bytes_per_sec);

// ---- cost model (docs/tuning.md "How the prior picks an arm") ---------------
// One call costs, on every rank in parallel, a fixed entry cost plus its
// share of the node's op counts:
//   t = t_call + barriers/p · t_barrier(p) + flag waits/p · t_flag + DAV/p / B.
// The constants were measured on the 4-vCPU reference host with each rank
// pinned to its own CPU; docs/tuning.md gives the runs they come from.

struct CostConstants {
  /// t_barrier(p) = this · log2(p): 0.24, 0.41 and 0.52 µs at p = 2, 3, 4
  /// (osu_microbench's barrier probe; runtime.barrier_us at p = 2).
  double barrier_us_per_level = 0.26;
  /// One progress-flag hand-off while every rank hands off at once, as in
  /// an MA round: 0.20-0.27 µs at p = 2, 3, 4 (osu_microbench's flag
  /// probe).  The idle two-rank runtime.flag_pingpong_us reads 0.17.
  double flag_us = 0.225;
  /// Per-rank copy/reduce bandwidth in bytes per µs, and the entry cost
  /// every arm pays: least-squares fit of the slot, DPML and MA sweeps of
  /// allreduce, reduce and reduce-scatter, 1-64 KB at p = 2, 3, 4.
  double bytes_per_us = 17.7e3;
  double call_us = 0.4;
};

inline constexpr CostConstants kHostCost{};

/// Predicted µs of one call from its exact node op counts (impl::*_ops).
double predict_us(const impl::OpCounts& node, int p,
                  const CostConstants& k = kHostCost) noexcept;

}  // namespace yhccl::model
