// mc::atomic — the model-checkable atomic indirection (docs/analysis.md §MC).
//
// Every atomic that participates in a cross-rank protocol in src/runtime and
// src/trace is declared as yhccl::mc::atomic<T> instead of std::atomic<T>
// (scripts/lint_atomics.py enforces this).  The indirection costs nothing:
//
//  * Normal builds: mc::atomic<T> IS std::atomic<T> (a type alias), mc::fence
//    is std::atomic_thread_fence, and the YHCCL_MC_ORDER/YHCCL_MC_FENCE
//    macros evaluate to their memory-order argument.  Zero overhead, zero
//    codegen difference.
//
//  * -DYHCCL_MC=ON builds: mc::atomic<T> wraps std::atomic<T> and, while a
//    model-checking session is running on this thread (mc::explore /
//    mc::replay, see yhccl/mc/checker.hpp), routes every load/store/RMW/CAS
//    through the cooperative scheduler so the explorer controls both the
//    interleaving and the reads-from choice.  Outside a session the wrapper
//    is a pass-through to the underlying std::atomic, so regular tests run
//    unchanged in an MC build.
//
// The YHCCL_MC_ORDER(point, order) macro names the protocol-critical memory
// orders the checker can *mutate*: under a seeded weakening (WeakPoint) the
// named order is demoted to relaxed, and the checker must catch the
// resulting protocol violation.  YHCCL_MC_STEP(point) names a whole
// protocol step instead (a wait that guards buffer reuse): it is true
// except while the checker runs with that point mutated, which drops the
// step.  The real call sites stay the single source
// of truth — mutations are applied to the production code path, not to a
// model of it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace yhccl::mc {

/// Seeded-weakening points: every memory order the mutation table can
/// demote to relaxed.  One enumerator per protocol-critical order/fence in
/// src/runtime + src/trace (the checker's mutation table in
/// src/analysis/mc/protocols.cpp must catch each one).
enum class WeakPoint : std::uint8_t {
  none = 0,
  barrier_join_rmw,       ///< central barrier: arrived.fetch_add(acq_rel)
  barrier_sense_release,  ///< central barrier: winner's sense store(release)
  dissem_signal_rmw,      ///< dissemination: flag fetch_add(acq_rel)
  spin_acquire,           ///< spin_wait_ge/eq: flag load(acquire)
  step_publish_release,   ///< progress flag publish store(release)
  seqlock_writer_fence,   ///< RemoteWindow publish: release fence
  seqlock_commit_release, ///< RemoteWindow publish: final seq store(release)
  seqlock_reader_fence,   ///< RemoteWindow snapshot: acquire fence
  fifo_tail_release,      ///< FIFO push: tail store(release)
  fifo_head_release,      ///< FIFO pop: head store(release)
  rndv_post_release,      ///< rendezvous post: rndv_posted store(release)
  rndv_done_release,      ///< rendezvous drain: rndv_done store(release)
  pagelock_acquire,       ///< page lock: CAS success order (acquire)
  pagelock_release,       ///< page unlock: store(release)
  ring_push_release,      ///< trace ring push: counter store(release)
  plan_claim_release,     ///< plan registry: claiming hash CAS (acq_rel)
  quar_publish_release,   ///< plan quarantine: mark CAS (acq_rel)
  slot_reuse_guard,       ///< slot protocol: the whole reuse-guard wait
  kCount_,
};

inline const char* weak_point_name(WeakPoint p) noexcept {
  switch (p) {
    case WeakPoint::none: return "none";
    case WeakPoint::barrier_join_rmw: return "barrier_join_rmw";
    case WeakPoint::barrier_sense_release: return "barrier_sense_release";
    case WeakPoint::dissem_signal_rmw: return "dissem_signal_rmw";
    case WeakPoint::spin_acquire: return "spin_acquire";
    case WeakPoint::step_publish_release: return "step_publish_release";
    case WeakPoint::seqlock_writer_fence: return "seqlock_writer_fence";
    case WeakPoint::seqlock_commit_release: return "seqlock_commit_release";
    case WeakPoint::seqlock_reader_fence: return "seqlock_reader_fence";
    case WeakPoint::fifo_tail_release: return "fifo_tail_release";
    case WeakPoint::fifo_head_release: return "fifo_head_release";
    case WeakPoint::rndv_post_release: return "rndv_post_release";
    case WeakPoint::rndv_done_release: return "rndv_done_release";
    case WeakPoint::pagelock_acquire: return "pagelock_acquire";
    case WeakPoint::pagelock_release: return "pagelock_release";
    case WeakPoint::ring_push_release: return "ring_push_release";
    case WeakPoint::plan_claim_release: return "plan_claim_release";
    case WeakPoint::quar_publish_release: return "quar_publish_release";
    case WeakPoint::slot_reuse_guard: return "slot_reuse_guard";
    case WeakPoint::kCount_: break;
  }
  return "?";
}

#ifndef YHCCL_MC

// ---------------------------------------------------------------------------
// Normal build: pure aliases; the indirection vanishes at compile time.
// ---------------------------------------------------------------------------

template <class T>
using atomic = std::atomic<T>;

inline void fence(std::memory_order o) noexcept {
  std::atomic_thread_fence(o);
}

inline constexpr bool enabled = false;
inline bool session_active() noexcept { return false; }

#define YHCCL_MC_ORDER(point, ...) (__VA_ARGS__)
#define YHCCL_MC_FENCE(point, ...) ::std::atomic_thread_fence(__VA_ARGS__)
#define YHCCL_MC_STEP(point) true

#else  // YHCCL_MC

// ---------------------------------------------------------------------------
// Model-checking build: interpose when a session runs on this thread.
// ---------------------------------------------------------------------------

inline constexpr bool enabled = true;

namespace detail {

/// True while mc::explore / mc::replay executes model ranks on this thread.
bool session_active() noexcept;

// Session hooks, implemented by the engine (src/analysis/mc/checker.cpp).
// Values travel as zero-extended 64-bit patterns; `size` is sizeof(T) for
// width-correct RMW arithmetic.  `cur` is the underlying value *before* the
// operation — the engine captures it as the location's initial value on
// first touch.
std::uint64_t sess_load(const void* addr, std::uint64_t cur, unsigned size,
                        std::memory_order o);
void sess_store(void* addr, std::uint64_t cur, std::uint64_t val,
                unsigned size, std::memory_order o);
std::uint64_t sess_rmw_add(void* addr, std::uint64_t cur, std::uint64_t delta,
                           unsigned size, std::memory_order o);
bool sess_cas(void* addr, std::uint64_t cur, std::uint64_t* expected,
              std::uint64_t desired, unsigned size, std::memory_order ok,
              std::memory_order fail);
void sess_fence(std::memory_order o);
void sess_spin_yield();
void sess_data(const void* p, std::size_t n, bool write,
               const char* site) noexcept;
std::memory_order sess_order(WeakPoint p, std::memory_order o) noexcept;

template <class T>
std::uint64_t to_bits(T x) noexcept {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(T));
  return b;
}

template <class T>
T from_bits(std::uint64_t b) noexcept {
  T x;
  std::memcpy(&x, &b, sizeof(T));
  return x;
}

}  // namespace detail

inline bool session_active() noexcept { return detail::session_active(); }

inline void fence(std::memory_order o) noexcept {
  if (!detail::session_active()) {
    std::atomic_thread_fence(o);
    return;
  }
  detail::sess_fence(o);
}

/// Interposing atomic.  Layout-compatible with std::atomic<T> (one member),
/// so shared-mapping structs keep their size in both build flavours.  The
/// underlying std::atomic always holds the newest modification-order value,
/// which keeps pass-through readers (and the post-execution final checks)
/// coherent with the explored history.
template <class T>
class atomic {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "mc::atomic models word-sized trivially copyable types");

 public:
  atomic() noexcept : v_{} {}
  atomic(T x) noexcept : v_(x) {}  // NOLINT(google-explicit-constructor)
  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order o = std::memory_order_seq_cst) const noexcept {
    if (!detail::session_active()) return v_.load(o);
    return detail::from_bits<T>(detail::sess_load(
        this, detail::to_bits(v_.load(std::memory_order_relaxed)),
        sizeof(T), o));
  }

  void store(T x, std::memory_order o = std::memory_order_seq_cst) noexcept {
    if (!detail::session_active()) {
      v_.store(x, o);
      return;
    }
    detail::sess_store(this,
                       detail::to_bits(v_.load(std::memory_order_relaxed)),
                       detail::to_bits(x), sizeof(T), o);
    v_.store(x, std::memory_order_relaxed);
  }

  template <class U = T,
            std::enable_if_t<std::is_integral_v<U>, int> = 0>
  T fetch_add(T d, std::memory_order o = std::memory_order_seq_cst) noexcept {
    if (!detail::session_active()) return v_.fetch_add(d, o);
    const std::uint64_t old = detail::sess_rmw_add(
        this, detail::to_bits(v_.load(std::memory_order_relaxed)),
        detail::to_bits(d), sizeof(T), o);
    const T old_t = detail::from_bits<T>(old);
    v_.store(static_cast<T>(old_t + d), std::memory_order_relaxed);
    return old_t;
  }

  bool compare_exchange_strong(T& expected, T desired, std::memory_order ok,
                               std::memory_order fail) noexcept {
    if (!detail::session_active())
      return v_.compare_exchange_strong(expected, desired, ok, fail);
    std::uint64_t e = detail::to_bits(expected);
    const bool won = detail::sess_cas(
        this, detail::to_bits(v_.load(std::memory_order_relaxed)), &e,
        detail::to_bits(desired), sizeof(T), ok, fail);
    if (won)
      v_.store(desired, std::memory_order_relaxed);
    else
      expected = detail::from_bits<T>(e);
    return won;
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order o =
                                   std::memory_order_seq_cst) noexcept {
    return compare_exchange_strong(expected, desired, o, cas_fail_order(o));
  }

  /// The model has no spurious failures: weak == strong (sound — a spurious
  /// failure only re-runs a retry loop over an unchanged state).
  bool compare_exchange_weak(T& expected, T desired, std::memory_order ok,
                             std::memory_order fail) noexcept {
    return compare_exchange_strong(expected, desired, ok, fail);
  }
  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order o =
                                 std::memory_order_seq_cst) noexcept {
    return compare_exchange_strong(expected, desired, o, cas_fail_order(o));
  }

 private:
  static constexpr std::memory_order cas_fail_order(
      std::memory_order o) noexcept {
    switch (o) {
      case std::memory_order_acq_rel: return std::memory_order_acquire;
      case std::memory_order_release: return std::memory_order_relaxed;
      default: return o;
    }
  }

  std::atomic<T> v_;
};

static_assert(sizeof(atomic<std::uint64_t>) == sizeof(std::atomic<std::uint64_t>));

#define YHCCL_MC_ORDER(point, ...)                                    \
  (::yhccl::mc::detail::sess_order(::yhccl::mc::WeakPoint::point,     \
                                   (__VA_ARGS__)))
#define YHCCL_MC_FENCE(point, ...)                                    \
  ::yhccl::mc::fence(::yhccl::mc::detail::sess_order(                 \
      ::yhccl::mc::WeakPoint::point, (__VA_ARGS__)))
#define YHCCL_MC_STEP(point)                                          \
  (::yhccl::mc::detail::sess_order(::yhccl::mc::WeakPoint::point,     \
                                   std::memory_order_acquire) !=      \
   std::memory_order_relaxed)

#endif  // YHCCL_MC

}  // namespace yhccl::mc
