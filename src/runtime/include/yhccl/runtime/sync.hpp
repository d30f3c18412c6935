// Shared-memory synchronization primitives.
//
// Everything here lives *inside the team's shared mapping* so it works for
// both thread-backed and fork()-backed rank teams.  The paper's algorithms
// synchronize with per-rank atomic progress flags between neighbouring
// pipeline steps (§3.3) plus node/socket barriers between phases.
//
// Waits use a staged backoff — pause bursts, then sched_yield(), then short
// sleeps — so a stalled peer does not burn whole cores while the watchdog
// counts down, and the reproduction host's oversubscribed teams stay live.
#pragma once

#include <cstdint>

#include "yhccl/analysis/hb.hpp"
#include "yhccl/common/error.hpp"
#include "yhccl/common/types.hpp"
#include "yhccl/mc/atomic.hpp"
#include "yhccl/metrics/metrics.hpp"
#include "yhccl/runtime/fault.hpp"
#include "yhccl/runtime/sync_counts.hpp"
#include "yhccl/runtime/sync_timeout.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::rt {

/// One cacheline-padded atomic counter per rank; avoids false sharing on
/// the flag array (§5.1: "avoid the cache line's false sharing").
/// mc::atomic == std::atomic in normal builds; under -DYHCCL_MC the model
/// checker intercepts it (yhccl/mc/atomic.hpp).
struct alignas(kCacheline) PaddedFlag {
  mc::atomic<std::uint64_t> v{0};
};
static_assert(sizeof(PaddedFlag) == kCacheline);

/// Staged-backoff helper shared by every spin loop:
///   1. 64 `pause` iterations per cycle (µs-scale partner latency),
///   2. sched_yield() for the next ~256 cycles (oversubscribed teams),
///   3. short sleeps doubling 64 µs → 1 ms (long waits stop burning cores).
/// Each cycle polls the team's abort word (coherent abort propagation) and
/// the peers' death tombstones, bumps this rank's heartbeat, and — unlike a
/// bare spin — enforces the process-wide sync timeout: the expiry is
/// classified against the team's liveness slots (PeerDead / PeerDiverged /
/// Timeout, see fault.hpp) and raised as a yhccl::Error instead of a hang.
class SpinGuard {
 public:
  explicit SpinGuard(const char* what = "synchronization wait",
                     trace::Phase ph = trace::Phase::flag_wait) noexcept
      : what_(what), ph_(ph) {}

  /// One backoff step; throws yhccl::Error on team abort or watchdog expiry.
  void relax();

 private:
  const char* what_;
  trace::Phase ph_;      // stall-marker tag once the wait enters stage 3
  bool marked_ = false;  // one marker per guard, not per sleep
  unsigned spins_ = 0;
  unsigned yields_ = 0;
  long sleep_ns_ = 64'000;  // doubles to 1 ms once in the sleep stage
  double deadline_ = -1.0;  // computed lazily on the first sleep
};

/// Spin until `f >= target` (acquire).
inline void spin_wait_ge(const mc::atomic<std::uint64_t>& f,
                         std::uint64_t target,
                         trace::Phase ph = trace::Phase::flag_wait) {
  SpinGuard guard("progress-flag wait", ph);
  while (f.load(YHCCL_MC_ORDER(spin_acquire, std::memory_order_acquire)) <
         target)
    guard.relax();
  analysis::hb_acquire(&f);
}

/// Spin until `f == target` (acquire).
inline void spin_wait_eq(const mc::atomic<std::uint64_t>& f,
                         std::uint64_t target,
                         trace::Phase ph = trace::Phase::flag_wait) {
  SpinGuard guard("progress-flag wait", ph);
  while (f.load(YHCCL_MC_ORDER(spin_acquire, std::memory_order_acquire)) !=
         target)
    guard.relax();
  analysis::hb_acquire(&f);
}

/// Publish a monotone progress value into a flag (the producer half of
/// spin_wait_ge/_eq).  Extracted so the progress-flag protocol is a named,
/// model-checkable unit rather than an inline store at each call site.
inline void flag_publish(PaddedFlag& f, std::uint64_t v) noexcept {
  analysis::hb_release(&f.v);
  f.v.store(v,
            YHCCL_MC_ORDER(step_publish_release, std::memory_order_release));
}

/// A collective-level flag publish: flag_publish plus the fault point,
/// sync counter, metrics note and trace instant every such op carries.
inline void flag_post(PaddedFlag& f, std::uint64_t v) {
  fault_point("flag");
  sync_count_flag_post();
  metrics::note_flag_post();
  flag_publish(f, v);
  trace::instant(trace::Phase::flag_post, v);
}

/// The consumer half of flag_post: wait until `f >= v`, instrumented alike.
inline void flag_wait(const PaddedFlag& f, std::uint64_t v) {
  fault_point("flag");
  sync_count_flag_wait();
  metrics::note_flag_wait();
  trace::Span sp(trace::Phase::flag_wait, v);
  spin_wait_ge(f.v, v);
}

/// Sense-reversing central barrier.  Construct in shared memory; each
/// participant keeps its own sense token (see RankCtx).
struct BarrierState {
  alignas(kCacheline) mc::atomic<std::uint32_t> arrived{0};
  alignas(kCacheline) mc::atomic<std::uint32_t> sense{0};
  std::uint32_t nparticipants = 0;
};

inline void barrier_init(BarrierState& b, std::uint32_t n) noexcept {
  b.arrived.store(0, std::memory_order_relaxed);
  b.sense.store(0, std::memory_order_relaxed);
  b.nparticipants = n;
}

/// Arrive and wait.  `local_sense` must be a per-participant variable that
/// starts at 0 and is only ever passed to this barrier.  `trace_scope` tags
/// the span: 0 = node barrier, 1 + s = barrier of socket s.
inline void barrier_arrive(BarrierState& b, std::uint32_t& local_sense,
                           std::uint8_t trace_scope = 0) {
  fault_point("barrier");
  sync_count_barrier();
  // The span's t0 is this rank's arrival; the harvester groups same-ordinal
  // arrivals across ranks (SPMD barrier sequence) into max-minus-min skew.
  trace::Span sp(trace::Phase::barrier, detail::g_sync_counts.barriers,
                 trace_scope);
  // Metrics arrival stamp *after* the fault point, so an injected
  // stall@barrier shows up as a late arrival the straggler detector sees.
  metrics::BarrierScope ms(trace_scope);
  local_sense ^= 1u;
  // HB model: the acq_rel RMW joins this rank with every earlier arriver
  // (release sequence on `arrived`); the winner thus carries the join of
  // all participants into `sense`, which every waiter acquires.  The model
  // release must precede the real fetch_add (so whoever observes the count
  // also finds the clock), and the winner re-acquires after observing the
  // full count to pick up ranks whose model release ran after its own.
  analysis::hb_acq_rel(&b.arrived);
  if (b.arrived.fetch_add(1, YHCCL_MC_ORDER(barrier_join_rmw,
                                            std::memory_order_acq_rel)) +
          1 ==
      b.nparticipants) {
    analysis::hb_acquire(&b.arrived);
    b.arrived.store(0, std::memory_order_relaxed);
    analysis::hb_release(&b.sense);
    b.sense.store(local_sense, YHCCL_MC_ORDER(barrier_sense_release,
                                              std::memory_order_release));
  } else {
    SpinGuard guard("barrier wait");
    while (b.sense.load(YHCCL_MC_ORDER(
               spin_acquire, std::memory_order_acquire)) != local_sense)
      guard.relax();
    analysis::hb_acquire(&b.sense);
  }
}

/// Dissemination barrier: ceil(log2 n) rounds of pairwise signalling, no
/// central counter — scales better than the sense-reversing barrier at
/// high rank counts (the synchronization cost the socket-aware MA design
/// amortizes, §3.3).  State lives in shared memory; each participant keeps
/// a private round-trip counter in its token.
/// Most ranks any barrier (central or dissemination) can serve.  Kept in
/// this header (rather than using rt::kMaxRanks from team.hpp) to avoid a
/// header cycle; team.hpp static_asserts the two stay compatible.
inline constexpr std::uint32_t kMaxBarrierRanks = 256;

struct DisseminationBarrierState {
  static constexpr int kMaxRounds = 9;
  /// flags[round][rank]: monotone counters.
  PaddedFlag flags[kMaxRounds][kMaxBarrierRanks];
  std::uint32_t nparticipants = 0;
};

// ceil(log2 n) rounds must fit: every participant count up to
// kMaxBarrierRanks needs at most kMaxRounds pairwise-signal rounds.
static_assert((1u << DisseminationBarrierState::kMaxRounds) >=
                  kMaxBarrierRanks,
              "dissemination round count does not cover kMaxBarrierRanks");

struct DisseminationToken {
  std::uint64_t epoch = 0;
};

inline void dissemination_init(DisseminationBarrierState& b,
                               std::uint32_t n) {
  // n > kMaxBarrierRanks would pass silently here and overflow
  // flags[round][kMaxBarrierRanks] during arrive — reject up front.
  YHCCL_REQUIRE(n >= 1 && n <= kMaxBarrierRanks,
                "dissemination barrier participant count out of range");
  b.nparticipants = n;
}

inline void dissemination_arrive(DisseminationBarrierState& b, int rank,
                                 DisseminationToken& tok,
                                 std::uint8_t trace_scope = 0) {
  fault_point("barrier");
  sync_count_barrier();
  trace::Span sp(trace::Phase::barrier, detail::g_sync_counts.barriers,
                 trace_scope);
  metrics::BarrierScope ms(trace_scope);
  const auto n = b.nparticipants;
  ++tok.epoch;
  int round = 0;
  for (std::uint32_t dist = 1; dist < n; dist *= 2, ++round) {
    const auto peer = (static_cast<std::uint32_t>(rank) + dist) % n;
    // acq_rel RMW: releases my clock into the peer's flag (the acquire
    // side happens in spin_wait_ge below / on the peer).
    analysis::hb_acq_rel(&b.flags[round][peer].v);
    b.flags[round][peer].v.fetch_add(
        1, YHCCL_MC_ORDER(dissem_signal_rmw, std::memory_order_acq_rel));
    spin_wait_ge(b.flags[round][rank].v, tok.epoch, trace::Phase::barrier);
  }
}

}  // namespace yhccl::rt
