// Plan keys, packing, the analytic prior and the candidate-arm tables
// (docs/tuning.md).  Everything here is a pure function of its arguments:
// the agreement argument in plan.hpp leans on that.
#include <algorithm>
#include <atomic>
#include <bit>

#include "yhccl/coll/detail.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/model/dav_model.hpp"
#include "yhccl/runtime/slot.hpp"

namespace yhccl::coll::plan {

namespace {

bool is_reduction(CollKind k) noexcept {
  return k == CollKind::allreduce || k == CollKind::reduce ||
         k == CollKind::reduce_scatter;
}

bool socket_shape(int ranks, int sockets) noexcept {
  return sockets > 1 && ranks % sockets == 0;
}

}  // namespace

// ---- key packing ------------------------------------------------------------
// fields: kind 0-3 | dtype 4-7 | op 8-11 | bucket 12-19 | ranks 20-31 |
// sockets 32-39.  kMaxRanks = 256 and kMaxSockets = 16 fit with room.

std::uint64_t PlanKey::packed_fields() const noexcept {
  std::uint64_t f = static_cast<std::uint64_t>(kind) & 0xf;
  f |= (static_cast<std::uint64_t>(dtype) & 0xf) << 4;
  f |= (static_cast<std::uint64_t>(op) & 0xf) << 8;
  f |= static_cast<std::uint64_t>(bucket) << 12;
  f |= (static_cast<std::uint64_t>(ranks) & 0xfff) << 20;
  f |= (static_cast<std::uint64_t>(sockets) & 0xff) << 32;
  return f;
}

PlanKey PlanKey::from_fields(std::uint64_t f) noexcept {
  PlanKey k;
  k.kind = static_cast<CollKind>(f & 0xf);
  k.dtype = static_cast<Datatype>((f >> 4) & 0xf);
  k.op = static_cast<ReduceOp>((f >> 8) & 0xf);
  k.bucket = static_cast<std::uint8_t>((f >> 12) & 0xff);
  k.ranks = static_cast<int>((f >> 20) & 0xfff);
  k.sockets = static_cast<int>((f >> 32) & 0xff);
  return k;
}

std::uint64_t PlanKey::hash(std::uint64_t team_sig,
                            std::uint64_t opts_sig) const noexcept {
  std::uint64_t h = rt::plan_mix64(packed_fields());
  h = rt::plan_mix64(h ^ team_sig);
  h = rt::plan_mix64(h ^ opts_sig);
  return h != 0 ? h : 1;
}

std::uint64_t opts_signature(const CollOpts& opts) noexcept {
  std::uint64_t h = 0;
  const auto fold = [&h](std::uint64_t v) {
    h = rt::plan_mix64(h ^ rt::plan_mix64(v));
  };
  fold(static_cast<std::uint64_t>(opts.policy));
  fold(opts.slice_max);
  fold(opts.slice_min);
  fold(opts.dpml_chunk);
  fold(opts.dpml_flat ? 1 : 0);
  return h;
}

// ---- cost-model switch points -----------------------------------------------
// The prior's thresholds are where the model::predict_us costs of the arms
// cross (docs/tuning.md "How the prior picks an arm").  They are computed
// once per shape and process by running the exact op-count simulators,
// then memoized, so choose_algorithm stays O(1).

namespace {

model::impl::OpGeometry geometry(int ranks, int sockets,
                                 const CollOpts& o) noexcept {
  model::impl::OpGeometry g;
  g.p = ranks;
  g.m = sockets;
  g.slice_max = o.slice_max;
  g.slice_min = o.slice_min;
  g.dpml_chunk = o.dpml_chunk;
  g.dpml_flat = o.dpml_flat;
  return g;
}

/// The MA arm the prior runs on this shape.
Algorithm ma_arm(int ranks, int sockets) noexcept {
  return socket_shape(ranks, sockets) ? Algorithm::ma_socket_aware
                                      : Algorithm::ma_flat;
}

model::impl::OpCounts arm_ops(CollKind kind, Algorithm a, std::size_t s,
                              const model::impl::OpGeometry& g) noexcept {
  namespace mi = model::impl;
  const bool socket = a == Algorithm::ma_socket_aware;
  switch (kind) {
    case CollKind::allreduce:
      if (a == Algorithm::slot) return mi::slot_allreduce_ops(s, g);
      if (a == Algorithm::dpml_two_level) return mi::dpml_allreduce_ops(s, g);
      return socket ? mi::socket_ma_allreduce_ops(s, g)
                    : mi::ma_allreduce_ops(s, g);
    case CollKind::reduce:
      if (a == Algorithm::slot) return mi::slot_reduce_ops(s, g);
      if (a == Algorithm::dpml_two_level) return mi::dpml_reduce_ops(s, g);
      return socket ? mi::socket_ma_reduce_ops(s, g)
                    : mi::ma_reduce_ops(s, g);
    case CollKind::reduce_scatter:
      if (a == Algorithm::dpml_two_level)
        return mi::dpml_reduce_scatter_ops(s, g);
      return socket ? mi::socket_ma_reduce_scatter_ops(s, g)
                    : mi::ma_reduce_scatter_ops(s, g);
    case CollKind::broadcast:
      if (a == Algorithm::slot) return mi::slot_broadcast_ops(s, g);
      return mi::pipelined_broadcast_ops(s, g);
    default:
      return mi::pipelined_allgather_ops(s, g);
  }
}

double arm_us(CollKind kind, Algorithm a, std::size_t s,
              const model::impl::OpGeometry& g) noexcept {
  return model::predict_us(arm_ops(kind, a, s, g), g.p);
}

/// Largest s in [lo, hi] for which `wins` holds (0 if none), given that it
/// holds on a prefix of the sizes: doubling scan, then bisection inside the
/// octave.
template <class Wins>
std::size_t last_win(std::size_t lo, std::size_t hi, Wins&& wins) noexcept {
  if (hi < lo || !wins(lo)) return 0;
  for (;;) {
    const std::size_t next = lo > hi / 2 ? hi : 2 * lo;
    if (next == lo) return lo;
    if (!wins(next)) {
      std::size_t bad = next;
      while (bad - lo > 1) {
        const std::size_t mid = lo + (bad - lo) / 2;
        (wins(mid) ? lo : bad) = mid;
      }
      return lo;
    }
    lo = next;
  }
}

/// Sizes past which DPML never wins are searched no further: beyond
/// 256 MB every shape's MA schedule needs fewer rounds than DPML's.
constexpr std::size_t kScanBytes = std::size_t{1} << 28;

SwitchPoints derive(CollKind kind, int ranks, int sockets,
                    const CollOpts& o) noexcept {
  const model::impl::OpGeometry g = geometry(ranks, sockets, o);
  const Algorithm ma = ma_arm(ranks, sockets);
  SwitchPoints sp;
  if (is_reduction(kind))
    // A reduce-scatter input moves nothing below one byte per rank.
    sp.dpml_max = last_win(kind == CollKind::reduce_scatter
                               ? static_cast<std::size_t>(ranks)
                               : 1,
                           kScanBytes, [&](std::size_t s) {
      return arm_us(kind, Algorithm::dpml_two_level, s, g) <
             arm_us(kind, ma, s, g);
    });
  if (slot_kind(kind))
    sp.slot_max = last_win(1, rt::slot_capacity(ranks), [&](std::size_t s) {
      const double other =
          kind == CollKind::broadcast
              ? arm_us(kind, Algorithm::pipelined, s, g)
              : std::min(arm_us(kind, Algorithm::dpml_two_level, s, g),
                         arm_us(kind, ma, s, g));
      return arm_us(kind, Algorithm::slot, s, g) <= other;
    });
  return sp;
}

/// Publish-once memo, one table per kind: a writer claims an entry
/// (`claimed` 0 -> 1), fills it, then publishes its shape word (never 0,
/// since ranks >= 1) with release; the entry is never written again, so a
/// reader that acquires a matching shape word races with nobody.  A full
/// table, or an entry another thread is still filling, only costs a
/// recomputation.
struct MemoEntry {
  std::atomic<std::uint64_t> shape{0};  // shape_word()
  std::atomic<int> claimed{0};
  std::size_t slice_max = 0, slice_min = 0, dpml_chunk = 0;
  SwitchPoints value;

  bool holds(std::uint64_t sh, const CollOpts& o) const noexcept {
    return shape.load(std::memory_order_acquire) == sh &&
           slice_max == o.slice_max && slice_min == o.slice_min &&
           dpml_chunk == o.dpml_chunk;
  }
};
constexpr int kMemoKinds = static_cast<int>(CollKind::kCount_);
constexpr int kMemoEntries = 16;
MemoEntry g_memo[kMemoKinds][kMemoEntries];

SwitchPoints memo_fill(CollKind kind, int ranks, int sockets,
                       std::uint64_t shape, const CollOpts& opts) noexcept {
  for (MemoEntry& e : g_memo[static_cast<int>(kind)]) {
    if (e.holds(shape, opts)) return e.value;
    int free = 0;
    if (e.claimed.compare_exchange_strong(free, 1,
                                          std::memory_order_acq_rel)) {
      e.slice_max = opts.slice_max;
      e.slice_min = opts.slice_min;
      e.dpml_chunk = opts.dpml_chunk;
      e.value = derive(kind, ranks, sockets, opts);
      e.shape.store(shape, std::memory_order_release);
      return e.value;
    }
  }
  return derive(kind, ranks, sockets, opts);
}

std::uint64_t shape_word(int ranks, int sockets, const CollOpts& o) noexcept {
  return static_cast<std::uint64_t>(ranks & 0x1ff) |
         static_cast<std::uint64_t>(sockets & 0x1f) << 9 |
         static_cast<std::uint64_t>(o.dpml_flat ? 1 : 0) << 14;
}

bool default_slicing(const CollOpts& o) noexcept {
  constexpr CollOpts kDefaults{};
  return (o.slice_max == kDefaults.slice_max) &
         (o.slice_min == kDefaults.slice_min) &
         (o.dpml_chunk == kDefaults.dpml_chunk);
}

/// The hot path, for calls with default slicing options (every call the
/// benchmarks and apps make): one self-contained word per kind packs the
/// last shape derived under them with its switch points, so a hit costs
/// one relaxed load.  shape: ranks 0-8 | sockets 9-13 | dpml_flat 14;
/// slot_max (<= 32 KB) 15-30; dpml_max (<= kScanBytes) 31-59.
std::atomic<std::uint64_t> g_fast[kMemoKinds];
static_assert(rt::kSlotNodeBytes < (1u << 16) && kScanBytes < (1u << 29));

bool fast_lookup(CollKind kind, int ranks, int sockets, const CollOpts& opts,
                 SwitchPoints* sp) noexcept {
  const int k = static_cast<int>(kind);
  if (k < 0 || k >= kMemoKinds) return false;
  const std::uint64_t w = g_fast[k].load(std::memory_order_relaxed);
  // One branch for the whole test: it runs on every collective call.
  if (!(((w & 0x7fff) == shape_word(ranks, sockets, opts)) &
        default_slicing(opts)))
    return false;
  *sp = {(w >> 15) & 0xffff, (w >> 31) & 0x1fffffff};
  return true;
}

[[gnu::noinline]] SwitchPoints slow_lookup(CollKind kind, int ranks,
                                            int sockets,
                                            const CollOpts& opts) noexcept {
  if (static_cast<int>(kind) < 0 || static_cast<int>(kind) >= kMemoKinds)
    return {};
  const std::uint64_t shape = shape_word(ranks, sockets, opts);
  const SwitchPoints sp = memo_fill(kind, ranks, sockets, shape, opts);
  if (default_slicing(opts))
    g_fast[static_cast<int>(kind)].store(
        shape | static_cast<std::uint64_t>(sp.slot_max) << 15 |
            static_cast<std::uint64_t>(sp.dpml_max) << 31,
        std::memory_order_relaxed);
  return sp;
}

}  // namespace

SwitchPoints switch_points(CollKind kind, int ranks, int sockets,
                           const CollOpts& opts) noexcept {
  SwitchPoints sp;
  return fast_lookup(kind, ranks, sockets, opts, &sp)
             ? sp
             : slow_lookup(kind, ranks, sockets, opts);
}

double predicted_us(CollKind kind, Algorithm a, std::size_t msg_bytes,
                    int ranks, int sockets, const CollOpts& opts) noexcept {
  return arm_us(kind, a, msg_bytes, geometry(ranks, sockets, opts));
}

// ---- size buckets -----------------------------------------------------------

std::uint8_t bucket_of(CollKind kind, std::size_t msg_bytes, int ranks,
                       int sockets, const CollOpts& opts) noexcept {
  if (msg_bytes == 0) return 0;
  auto b = static_cast<std::uint8_t>(std::bit_width(msg_bytes - 1));
  // The switch points may land inside a power-of-two bucket; splitting on
  // them keeps the static decision constant within every (bucket, side)
  // class for every shape and option set, so the prior is exact, never
  // approximate.
  const SwitchPoints sp = switch_points(kind, ranks, sockets, opts);
  if (is_reduction(kind) && msg_bytes > sp.dpml_max) b |= kAboveThreshold;
  if (msg_bytes <= sp.slot_max) b |= kSlotSide;
  return b;
}

std::size_t bucket_rep_bytes(CollKind kind, std::uint8_t bucket, int ranks,
                             int sockets, const CollOpts& opts) noexcept {
  std::size_t rep = std::size_t{1} << (bucket & 0x3f);
  const SwitchPoints sp = switch_points(kind, ranks, sockets, opts);
  if (is_reduction(kind) && (bucket & kAboveThreshold) == 0)
    rep = std::min(rep, sp.dpml_max);
  if ((bucket & kSlotSide) != 0) rep = std::min(rep, sp.slot_max);
  return rep;
}

PlanKey make_key(CollKind kind, std::size_t msg_bytes, Datatype d,
                 ReduceOp op, const rt::Topology& topo,
                 const CollOpts& opts) noexcept {
  PlanKey k;
  k.kind = kind;
  k.dtype = d;
  k.op = is_reduction(kind) ? op : ReduceOp::sum;
  k.bucket =
      bucket_of(kind, msg_bytes, topo.nranks(), topo.nsockets(), opts);
  k.ranks = topo.nranks();
  k.sockets = topo.nsockets();
  return k;
}

// ---- structural contract ----------------------------------------------------
// The runtime's integrity sweep validates stored words against the
// reserved-bit masks in rt/plan_registry.hpp without unpacking them.  These
// asserts pin this file's packing to that contract: the used bits and the
// reserved mask must partition the word exactly, so *any* flipped byte of a
// committed word lands on a reserved bit or clears the valid bit.

namespace {

constexpr std::uint64_t kWordUsedBits =
    (std::uint64_t{1} << 63) |  // valid
    0xfull |                    // algorithm 0-3
    (0x3ull << 4) |             // nt 4-5
    (0x3full << 8) |            // slice_log2 8-13
    (0x3full << 16) |           // chunk_log2 16-21
    (1ull << 24) |              // nt_prior 24
    (0x3ull << 25) |            // source 25-26
    (0xfull << 28);             // arm 28-31
static_assert((kWordUsedBits & rt::kPlanWordValidBit) != 0,
              "plan word must carry the contracted valid bit");
static_assert((kWordUsedBits & rt::kPlanWordReservedMask) == 0,
              "plan packing writes into contracted reserved bits");
static_assert((kWordUsedBits | rt::kPlanWordReservedMask) == ~0ull,
              "plan word bits unaccounted for by the structural contract");

constexpr std::uint64_t kFieldsUsedBits =
    0xfull |            // kind 0-3
    (0xfull << 4) |     // dtype 4-7
    (0xfull << 8) |     // op 8-11
    (0xffull << 12) |   // bucket 12-19
    (0xfffull << 20) |  // ranks 20-31
    (0xffull << 32);    // sockets 32-39
static_assert((kFieldsUsedBits & rt::kPlanFieldsReservedMask) == 0,
              "key packing writes into contracted reserved bits");
static_assert((kFieldsUsedBits | rt::kPlanFieldsReservedMask) == ~0ull,
              "key field bits unaccounted for by the structural contract");

}  // namespace

// ---- plan packing -----------------------------------------------------------
// word: valid 63 | algorithm 0-3 | nt 4-5 | slice_log2 8-13 |
// chunk_log2 16-21 | nt_prior 24 | source 25-26 | arm 28-31.

std::uint64_t Plan::pack() const noexcept {
  std::uint64_t w = std::uint64_t{1} << 63;
  w |= static_cast<std::uint64_t>(algorithm) & 0xf;
  w |= (static_cast<std::uint64_t>(nt) & 0x3) << 4;
  w |= static_cast<std::uint64_t>(slice_log2 & 0x3f) << 8;
  w |= static_cast<std::uint64_t>(chunk_log2 & 0x3f) << 16;
  if (nt_prior) w |= std::uint64_t{1} << 24;
  w |= (static_cast<std::uint64_t>(source) & 0x3) << 25;
  w |= static_cast<std::uint64_t>(arm & 0xf) << 28;
  return w;
}

Plan Plan::unpack(std::uint64_t w) noexcept {
  Plan p;
  p.algorithm = static_cast<Algorithm>(w & 0xf);
  p.nt = static_cast<NtChoice>((w >> 4) & 0x3);
  p.slice_log2 = static_cast<std::uint8_t>((w >> 8) & 0x3f);
  p.chunk_log2 = static_cast<std::uint8_t>((w >> 16) & 0x3f);
  p.nt_prior = ((w >> 24) & 1) != 0;
  p.source = static_cast<PlanSource>((w >> 25) & 0x3);
  p.arm = static_cast<std::uint8_t>((w >> 28) & 0xf);
  return p;
}

void Plan::apply(CollOpts& o) const noexcept {
  const CollOpts defaults{};
  if (o.policy == copy::CopyPolicy::adaptive) {
    if (nt == NtChoice::temporal) o.policy = copy::CopyPolicy::always_temporal;
    if (nt == NtChoice::stream) o.policy = copy::CopyPolicy::always_nt;
  }
  if (slice_log2 != 0 && o.slice_max == defaults.slice_max)
    o.slice_max = std::size_t{1} << slice_log2;
  if (chunk_log2 != 0 && o.dpml_chunk == defaults.dpml_chunk)
    o.dpml_chunk = std::size_t{1} << chunk_log2;
}

// ---- analytic prior ---------------------------------------------------------

namespace {

Algorithm decide(const rt::Topology& topo, CollKind kind,
                 std::size_t msg_bytes, const SwitchPoints& sp) noexcept {
  if (slot_kind(kind) && msg_bytes <= sp.slot_max) return Algorithm::slot;
  if (!is_reduction(kind)) return Algorithm::pipelined;
  if (msg_bytes <= sp.dpml_max) return Algorithm::dpml_two_level;
  return ma_arm(topo.nranks(), topo.nsockets());
}

[[gnu::noinline]] Algorithm choose_slow(const rt::Topology& topo,
                                        CollKind kind, std::size_t msg_bytes,
                                        const CollOpts& opts) noexcept {
  return decide(topo, kind, msg_bytes,
                slow_lookup(kind, topo.nranks(), topo.nsockets(), opts));
}

}  // namespace

Algorithm choose_algorithm(const rt::Topology& topo, CollKind kind,
                           std::size_t msg_bytes,
                           const CollOpts& opts) noexcept {
  if (opts.algorithm != Algorithm::automatic) return opts.algorithm;
  SwitchPoints sp;
  if (!fast_lookup(kind, topo.nranks(), topo.nsockets(), opts, &sp))
    return choose_slow(topo, kind, msg_bytes, opts);
  return decide(topo, kind, msg_bytes, sp);
}

bool prior_nt(CollKind kind, std::size_t msg_bytes, int p, int m,
              const copy::CacheConfig& cache,
              std::size_t slice_max) noexcept {
  const std::size_t I =
      std::max(round_up(slice_max, kCacheline), kCacheline);
  const std::size_t s = msg_bytes;
  std::size_t w = 0;
  switch (kind) {
    case CollKind::reduce_scatter:
      w = detail::WorkSet::reduce_scatter(s, p, I);
      break;
    case CollKind::allreduce:
      // W = 2sp + m*p*I > C  <=>  s > (C - m*p*I)/(2p): exactly the §5.4
      // switch point model::nt_switch_point_allreduce computes.
      w = detail::WorkSet::allreduce(s, p, m, I);
      break;
    case CollKind::reduce:
      w = detail::WorkSet::reduce(s, p, m, I);
      break;
    case CollKind::broadcast:
      w = detail::WorkSet::broadcast(s, p, I);
      break;
    case CollKind::allgather:
      w = detail::WorkSet::allgather(s, p, I);
      break;
    default:
      break;
  }
  return w > cache.available(p);
}

Plan prior_plan(const PlanKey& key, const CollOpts& opts,
                const rt::Topology& topo,
                const copy::CacheConfig& cache) noexcept {
  Plan p;
  const std::size_t rep = bucket_rep_bytes(key.kind, key.bucket, topo.nranks(),
                                           topo.nsockets(), opts);
  p.algorithm = choose_algorithm(topo, key.kind, rep, opts);
  p.nt = NtChoice::adaptive;  // per-slice Algorithm 1 — the legacy behavior
  p.nt_prior = prior_nt(key.kind, rep, topo.nranks(), topo.nsockets(), cache,
                        opts.slice_max);
  p.source = PlanSource::prior;
  p.arm = 0;
  return p;
}

bool plan_servable(const PlanKey& key, const Plan& p) noexcept {
  switch (p.algorithm) {
    case Algorithm::slot:
      return slot_kind(key.kind) && (key.bucket & kSlotSide) != 0;
    case Algorithm::pipelined:
      return !is_reduction(key.kind);
    case Algorithm::ma_flat:
    case Algorithm::ma_socket_aware:
    case Algorithm::dpml_two_level:
      return is_reduction(key.kind);
    case Algorithm::automatic:
      break;
  }
  return false;
}

// ---- candidate arms ---------------------------------------------------------

namespace {

int build_arms(const PlanKey& key, const CollOpts& opts,
               const rt::Topology& topo, const copy::CacheConfig& cache,
               Plan out[rt::kPlanMaxArms]) noexcept {
  const Plan prior = prior_plan(key, opts, topo, cache);
  int n = 0;
  out[n++] = prior;
  if (is_reduction(key.kind)) {
    const Algorithm alts[] = {Algorithm::slot, Algorithm::dpml_two_level,
                              Algorithm::ma_flat, Algorithm::ma_socket_aware};
    for (const Algorithm a : alts) {
      if (a == prior.algorithm) continue;
      if (a == Algorithm::ma_socket_aware &&
          !socket_shape(topo.nranks(), topo.nsockets()))
        continue;
      Plan p = prior;
      p.algorithm = a;
      if (plan_servable(key, p)) out[n++] = p;
    }
  } else {
    Plan pipe = prior;
    pipe.algorithm = Algorithm::pipelined;
    if (prior.algorithm == Algorithm::slot) out[n++] = pipe;
    // Alternative pipeline depths around the paper's Imax = 256 KB; apply()
    // honors them only when the caller kept the default, so these arms are
    // meaningful exactly when they are enumerated.
    if (opts.slice_max == CollOpts{}.slice_max)
      for (const std::uint8_t lg : {std::uint8_t{16}, std::uint8_t{20}}) {
        Plan p = pipe;
        p.slice_log2 = lg;
        out[n++] = p;
      }
  }
  // The slot arm always stores temporally: pinned-NT variants of it would
  // be duplicates of the prior.
  if (opts.policy == copy::CopyPolicy::adaptive &&
      prior.algorithm != Algorithm::slot && n + 2 <= rt::kPlanMaxArms) {
    Plan p = prior;
    p.nt = NtChoice::stream;
    out[n++] = p;
    p = prior;
    p.nt = NtChoice::temporal;
    out[n++] = p;
  }
  for (int i = 0; i < n; ++i) {
    out[i].arm = static_cast<std::uint8_t>(i);
    if (i != 0) out[i].source = PlanSource::online;
  }
  return n;
}

}  // namespace

int arm_count(const PlanKey& key, const CollOpts& opts,
              const rt::Topology& topo) noexcept {
  Plan arms[rt::kPlanMaxArms];
  return build_arms(key, opts, topo, copy::CacheConfig{}, arms);
}

Plan arm_plan(int arm, const PlanKey& key, const CollOpts& opts,
              const rt::Topology& topo,
              const copy::CacheConfig& cache) noexcept {
  Plan arms[rt::kPlanMaxArms];
  const int n = build_arms(key, opts, topo, cache, arms);
  return arms[arm >= 0 && arm < n ? arm : 0];
}

}  // namespace yhccl::coll::plan
