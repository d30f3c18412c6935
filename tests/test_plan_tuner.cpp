// Auto-tuner plan cache (docs/tuning.md): prior fidelity to the §5.1/§5.4
// static rules, cache hit/miss accounting, cross-rank agreement under
// online exploration on both backends, persistence round-trips, warming
// from bench reports, and the zero-allocation warm path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/coll/profiler.hpp"
#include "yhccl/model/dav_model.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/thread_team.hpp"

using namespace yhccl;
namespace plan = yhccl::coll::plan;
using coll::Algorithm;
using coll::CollKind;
using coll::CollOpts;

// ---- global allocation counter for the zero-alloc warm-path test ------------

static std::atomic<std::uint64_t> g_allocs{0};

// GCC flags free() on a replaced operator new's result; ours is malloc-backed.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

struct EnvGuard {
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old, had_ = true;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_)
      ::setenv(name_, old_.c_str(), 1);
    else
      ::unsetenv(name_);
  }
  const char* name_;
  std::string old_;
  bool had_ = false;
};

rt::TeamConfig tuned_cfg(int p, int m, rt::TuneMode mode) {
  rt::TeamConfig cfg;
  cfg.nranks = p;
  cfg.nsockets = m;
  cfg.scratch_bytes = 24u << 20;
  cfg.shared_heap_bytes = 4u << 20;
  cfg.tune = mode;
  return cfg;
}

/// Run `calls` identical allreduces, logging each rank's served plan word
/// into `words[call * nranks + rank]` (shared memory, both backends).
void run_logged_allreduce(rt::Team& team, int calls, std::size_t count,
                          std::uint64_t* words, const CollOpts& opts = {}) {
  const int p = team.nranks();
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> in(count), out(count);
    test::fill_buffer(in.data(), count, Datatype::f64, ctx.rank(),
                      ReduceOp::sum);
    for (int c = 0; c < calls; ++c) {
      coll::allreduce(ctx, in.data(), out.data(), count, Datatype::f64,
                      ReduceOp::sum, opts);
      words[static_cast<std::size_t>(c) * p + ctx.rank()] =
          plan::last_plan_word();
    }
  });
}

}  // namespace

// ---- the prior reproduces the static rules ----------------------------------

TEST(PlanPrior, MatchesStaticSwitchingRuleForEveryShape) {
  const copy::CacheConfig cache = copy::CacheConfig::node_a();
  // p = 3 and 6 put the slot capacity (32 KB / p, cacheline-rounded)
  // inside a power-of-two bucket; the derived switch points land inside
  // buckets for most shapes; (7, 2) is ragged, (64, 2) is NodeA's shape.
  CollOpts chunky, flat, narrow;
  chunky.dpml_chunk = 8u << 10;
  flat.dpml_flat = true;
  narrow.slice_max = 64u << 10;
  for (const auto& topo :
       {rt::Topology(8, 2), rt::Topology(3, 1), rt::Topology(6, 2),
        rt::Topology(2, 1), rt::Topology(4, 1), rt::Topology(4, 2),
        rt::Topology(7, 2), rt::Topology(16, 2), rt::Topology(64, 2),
        rt::Topology(1, 1)}) {
    const std::size_t cap = rt::slot_capacity(topo.nranks());
    for (const CollOpts& opts : {CollOpts{}, chunky, flat, narrow}) {
      for (const auto kind :
           {CollKind::allreduce, CollKind::reduce, CollKind::reduce_scatter,
            CollKind::broadcast, CollKind::allgather}) {
        const plan::SwitchPoints sp = plan::switch_points(
            kind, topo.nranks(), topo.nsockets(), opts);
        EXPECT_LE(sp.slot_max, cap);
        for (std::size_t base :
             {std::size_t{1}, std::size_t{64}, std::size_t{4} << 10, cap,
              sp.slot_max, sp.dpml_max, std::size_t{256} << 10,
              std::size_t{1} << 20, std::size_t{16} << 20}) {
          for (std::size_t bytes :
               {base, base + 1, base > 1 ? base - 1 : base}) {
            if (bytes == 0) continue;
            const auto key = plan::make_key(kind, bytes, Datatype::f64,
                                            ReduceOp::sum, topo, opts);
            const auto p = plan::prior_plan(key, opts, topo, cache);
            const Algorithm want =
                plan::choose_algorithm(topo, kind, bytes, opts);
            EXPECT_EQ(p.algorithm, want)
                << coll::coll_kind_name(kind) << " bytes=" << bytes
                << " p=" << topo.nranks() << " m=" << topo.nsockets();
            // The slot-side key bit is exactly the slot band.
            EXPECT_EQ((key.bucket & plan::kSlotSide) != 0,
                      want == Algorithm::slot)
                << coll::coll_kind_name(kind) << " bytes=" << bytes;
          }
        }
      }
    }
  }
  // slot_fits is the division-free form of s <= slot_capacity(p).
  for (int p = 1; p <= rt::kMaxRanks; ++p) {
    const std::size_t cap = rt::slot_capacity(p);
    EXPECT_TRUE(rt::slot_fits(p, cap)) << "p=" << p;
    EXPECT_FALSE(rt::slot_fits(p, cap + 1)) << "p=" << p;
    EXPECT_LE(static_cast<std::size_t>(p) * cap, rt::kSlotNodeBytes);
  }
  EXPECT_FALSE(rt::slot_fits(1, ~std::size_t{0}));
  // reduce_scatter and allgather never take the slot arm; broadcast and
  // allgather above it take the pipeline.
  const rt::Topology t8(8, 2);
  const CollOpts opts;
  EXPECT_EQ(plan::choose_algorithm(t8, CollKind::allreduce, 4u << 10, opts),
            Algorithm::slot);
  EXPECT_EQ(plan::choose_algorithm(t8, CollKind::reduce, 4u << 10, opts),
            Algorithm::slot);
  EXPECT_EQ(plan::choose_algorithm(t8, CollKind::broadcast, 4u << 10, opts),
            Algorithm::slot);
  EXPECT_EQ(
      plan::choose_algorithm(t8, CollKind::broadcast, (4u << 10) + 1, opts),
      Algorithm::pipelined);
  EXPECT_EQ(plan::choose_algorithm(t8, CollKind::allgather, 64, opts),
            Algorithm::pipelined);
  // Two sockets of four: socket-MA's 3 hand-offs and 3 barriers per round
  // undercut DPML's 4 barriers at every size, so DPML never serves.
  EXPECT_EQ(
      plan::choose_algorithm(t8, CollKind::allreduce, (4u << 10) + 1, opts),
      Algorithm::ma_socket_aware);
  EXPECT_EQ(plan::choose_algorithm(t8, CollKind::reduce_scatter, 64, opts),
            Algorithm::ma_socket_aware);
  // Single-socket and ragged topologies fall back to flat MA above the
  // DPML band.
  const rt::Topology flat6(6, 1), ragged(7, 2);
  EXPECT_EQ(
      plan::choose_algorithm(flat6, CollKind::allreduce, 1u << 20, opts),
      Algorithm::ma_flat);
  EXPECT_EQ(
      plan::choose_algorithm(ragged, CollKind::allreduce, 1u << 20, opts),
      Algorithm::ma_flat);
}

// The switch points the cost model derives sit where osu_microbench
// measured the arms cross on the 4-vCPU reference host (pinned ranks, one
// socket, medians of 10 runs; CHANGES.md), within one power-of-two bucket.
TEST(PlanPrior, DerivedSwitchPointsMatchTheMeasuredCrossovers) {
  const CollOpts opts;
  const auto sp = [&](CollKind k, int p, int m) {
    return plan::switch_points(k, p, m, opts);
  };
  // p = 2: the slot arm keeps every size it fits (it beat DPML and MA up
  // to 8 KB; at its 16 KB capacity MA was 6 % faster, one bucket off), and
  // MA beats DPML from 1 KB on.
  for (const auto kind :
       {CollKind::allreduce, CollKind::reduce, CollKind::broadcast})
    EXPECT_EQ(sp(kind, 2, 1).slot_max, rt::slot_capacity(2))
        << coll::coll_kind_name(kind);
  EXPECT_LT(sp(CollKind::allreduce, 2, 1).dpml_max, std::size_t{1} << 10);
  EXPECT_LT(sp(CollKind::reduce_scatter, 2, 1).dpml_max,
            std::size_t{1} << 10);
  // p = 4: slot allreduce won at 4 KB and lost to MA at 8 KB; DPML beat
  // MA at 1-2 KB, tied at 4 KB and lost from 8 KB on.
  const auto ar4 = sp(CollKind::allreduce, 4, 1);
  EXPECT_GT(ar4.slot_max, std::size_t{4} << 10);
  EXPECT_LT(ar4.slot_max, std::size_t{8} << 10);
  EXPECT_GE(ar4.dpml_max, std::size_t{2} << 10);
  EXPECT_LT(ar4.dpml_max, std::size_t{8} << 10);
  EXPECT_GE(sp(CollKind::reduce_scatter, 4, 1).dpml_max, std::size_t{2} << 10);
  EXPECT_LT(sp(CollKind::reduce_scatter, 4, 1).dpml_max, std::size_t{8} << 10);
  // slot reduce and broadcast won at every size they fit.
  EXPECT_EQ(sp(CollKind::reduce, 4, 1).slot_max, rt::slot_capacity(4));
  EXPECT_EQ(sp(CollKind::broadcast, 4, 1).slot_max, rt::slot_capacity(4));
  // NodeA's shape (p = 64, m = 2): DPML keeps the small-message band the
  // paper gives it (§5.1: s <= 256 KB), within a factor of 4.
  for (const auto kind : {CollKind::allreduce, CollKind::reduce}) {
    const std::size_t x = sp(kind, 64, 2).dpml_max;
    EXPECT_GE(x, std::size_t{64} << 10) << coll::coll_kind_name(kind);
    EXPECT_LE(x, std::size_t{1} << 20) << coll::coll_kind_name(kind);
  }
  // Pure and memoized: repeated queries agree.
  EXPECT_EQ(sp(CollKind::allreduce, 64, 2).dpml_max,
            sp(CollKind::allreduce, 64, 2).dpml_max);
}

TEST(PlanPrior, NtAdvisoryFlipsAtPrivateCapacityWhenTheLlcDoesNotCount) {
  // A guest shown a 300 MB LLC it cannot use: at p = 2 the allreduce work
  // set W = 2sp + mpI crosses C = p·c'' = 4 MB, not c' + p·c''.
  copy::CacheConfig cache{.llc_bytes = 300u << 20,
                          .l2_per_core = 2u << 20,
                          .llc_inclusive = false};
  cache.llc_counts = false;
  const int p = 2, m = 1;
  const std::size_t imax = CollOpts{}.slice_max;
  ASSERT_EQ(cache.available(p), std::size_t{4} << 20);
  const std::size_t sstar =
      model::nt_switch_point_allreduce(cache.available(p), p, m, imax);
  ASSERT_GT(sstar, 0u);
  EXPECT_LE(2 * sstar * p + m * p * imax, cache.available(p));
  EXPECT_GT(2 * (sstar + 1) * p + m * p * imax, cache.available(p));
  EXPECT_FALSE(plan::prior_nt(CollKind::allreduce, sstar, p, m, cache, imax));
  EXPECT_TRUE(
      plan::prior_nt(CollKind::allreduce, sstar + 1, p, m, cache, imax));
  // Counting the LLC keeps the same size temporal.
  copy::CacheConfig counted = cache;
  counted.llc_counts = true;
  EXPECT_FALSE(
      plan::prior_nt(CollKind::allreduce, sstar + 1, p, m, counted, imax));
}

TEST(PlanPrior, SignatureSeparatesTheLlcVerdicts) {
  const rt::Topology topo(2, 1);
  copy::CacheConfig counted = copy::CacheConfig::detect();
  counted.llc_counts = true;
  copy::CacheConfig uncounted = counted;
  uncounted.llc_counts = false;
  EXPECT_NE(rt::plan_signature(topo, counted),
            rt::plan_signature(topo, uncounted));
  rt::TeamConfig cfg;
  cfg.nranks = 2;
  cfg.nsockets = 1;
  cfg.cache = uncounted;
  rt::ThreadTeam team(cfg);
  EXPECT_EQ(team.plan_signature(), rt::plan_signature(topo, uncounted));
}

TEST(PlanPrior, NtAdvisoryMatchesPaperSwitchPoint) {
  // §5.4: the allreduce work set crosses the cache capacity exactly at
  // model::nt_switch_point_allreduce.
  for (const auto& cache :
       {copy::CacheConfig::node_a(), copy::CacheConfig::node_b(),
        copy::CacheConfig::cluster_c()}) {
    for (const int p : {4, 16, 64}) {
      for (const int m : {1, 2}) {
        const std::size_t imax = CollOpts{}.slice_max;
        const std::size_t sstar = model::nt_switch_point_allreduce(
            cache.available(p), p, m, imax);
        if (sstar == 0) continue;  // everything streams on this machine
        EXPECT_FALSE(
            plan::prior_nt(CollKind::allreduce, sstar, p, m, cache, imax))
            << "p=" << p << " m=" << m;
        EXPECT_TRUE(plan::prior_nt(CollKind::allreduce, sstar + 1, p, m,
                                   cache, imax))
            << "p=" << p << " m=" << m;
      }
    }
  }
}

TEST(PlanKeyPacking, FieldsAndPlanWordsRoundTrip) {
  plan::PlanKey key;
  key.kind = CollKind::reduce_scatter;
  key.dtype = Datatype::i32;
  key.op = ReduceOp::band;
  key.bucket = 0x40 | 21;
  key.ranks = 255;
  key.sockets = 15;
  const auto k2 = plan::PlanKey::from_fields(key.packed_fields());
  EXPECT_EQ(k2.kind, key.kind);
  EXPECT_EQ(k2.dtype, key.dtype);
  EXPECT_EQ(k2.op, key.op);
  EXPECT_EQ(k2.bucket, key.bucket);
  EXPECT_EQ(k2.ranks, key.ranks);
  EXPECT_EQ(k2.sockets, key.sockets);

  plan::Plan p;
  p.algorithm = Algorithm::ma_socket_aware;
  p.nt = plan::NtChoice::stream;
  p.slice_log2 = 20;
  p.chunk_log2 = 13;
  p.nt_prior = true;
  p.source = plan::PlanSource::online;
  p.arm = 3;
  const auto w = p.pack();
  EXPECT_NE(w, 0u);
  const auto p2 = plan::Plan::unpack(w);
  EXPECT_EQ(p2.algorithm, p.algorithm);
  EXPECT_EQ(p2.nt, p.nt);
  EXPECT_EQ(p2.slice_log2, p.slice_log2);
  EXPECT_EQ(p2.chunk_log2, p.chunk_log2);
  EXPECT_EQ(p2.nt_prior, p.nt_prior);
  EXPECT_EQ(p2.source, p.source);
  EXPECT_EQ(p2.arm, p.arm);
}

// ---- cache behavior ----------------------------------------------------------

TEST(PlanCache, HitMissAccountingAndCorrectResults) {
  EnvGuard eps("YHCCL_TUNE_EPS", "0");  // no exploration: pure cache test
  rt::ThreadTeam team(tuned_cfg(4, 2, rt::TuneMode::online));
  const std::size_t count = 4096;
  auto* words = reinterpret_cast<std::uint64_t*>(
      team.shared_alloc(sizeof(std::uint64_t) * 4 * 3));
  run_logged_allreduce(team, 3, count, words);

  const auto st = plan::tune_stats(team);
  EXPECT_EQ(st.lookups, 3u);
  EXPECT_EQ(st.misses, 1u);  // first call inserts the slot
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(st.explores, 0u);

  // A different size class gets its own slot.
  run_logged_allreduce(team, 1, count * 64, words);
  EXPECT_EQ(plan::tune_stats(team).entries, 2u);

  // Tuner off: no registry, stats all zero.
  rt::ThreadTeam off(tuned_cfg(4, 2, rt::TuneMode::off));
  EXPECT_EQ(off.plan_registry(), nullptr);
  EXPECT_EQ(plan::tune_stats(off).lookups, 0u);
}

TEST(PlanCache, QueryServesPriorUntilACommitExists) {
  rt::ThreadTeam team(tuned_cfg(8, 2, rt::TuneMode::prior));
  const CollOpts opts;
  const auto tiny = plan::query(team, CollKind::allreduce, 4u << 10,
                                Datatype::f64, ReduceOp::sum, opts);
  EXPECT_EQ(tiny.algorithm, Algorithm::slot);  // 8 * 4 KB fits the slots
  EXPECT_EQ(tiny.source, plan::PlanSource::prior);
  const auto small = plan::query(team, CollKind::allreduce, 16u << 10,
                                 Datatype::f64, ReduceOp::sum, opts);
  EXPECT_EQ(small.algorithm, Algorithm::ma_socket_aware);
  EXPECT_EQ(small.source, plan::PlanSource::prior);
  const auto large = plan::query(team, CollKind::allreduce, 4u << 20,
                                 Datatype::f64, ReduceOp::sum, opts);
  EXPECT_EQ(large.algorithm, Algorithm::ma_socket_aware);
  const auto bcast = plan::query(team, CollKind::broadcast, 1u << 20,
                                 Datatype::f64, ReduceOp::sum, opts);
  EXPECT_EQ(bcast.algorithm, Algorithm::pipelined);
}

// ---- cross-rank agreement ----------------------------------------------------

template <typename TeamT>
static void agreement_case(rt::TuneMode mode, const char* eps) {
  EnvGuard g("YHCCL_TUNE_EPS", eps);
  const int p = 8, calls = 48;
  TeamT team(tuned_cfg(p, 2, mode));
  auto* words = reinterpret_cast<std::uint64_t*>(
      team.shared_alloc(sizeof(std::uint64_t) * p * calls));
  run_logged_allreduce(team, calls, 16384, words);
  for (int c = 0; c < calls; ++c)
    for (int r = 1; r < p; ++r)
      ASSERT_EQ(words[c * p + r], words[c * p])
          << "rank " << r << " diverged on call " << c;
}

TEST(PlanAgreement, AllRanksServeTheSamePlanWhileExploring_Threads) {
  agreement_case<rt::ThreadTeam>(rt::TuneMode::online, "0.5");
}

TEST(PlanAgreement, AllRanksServeTheSamePlanWhileExploring_Processes) {
  agreement_case<rt::ProcessTeam>(rt::TuneMode::online, "0.5");
}

TEST(PlanAgreement, ThreadAndForkBackendsExploreIdentically) {
  // With eps = 1 every call serves the explored arm, which is a pure
  // function of (key hash, tune_seq) — so the served sequence must be
  // bit-identical across backends.
  EnvGuard g("YHCCL_TUNE_EPS", "1");
  const int p = 4, calls = 24;
  std::vector<std::uint64_t> seq[2];
  int which = 0;
  for (which = 0; which < 2; ++which) {
    std::unique_ptr<rt::Team> team;
    if (which == 0)
      team = std::make_unique<rt::ThreadTeam>(
          tuned_cfg(p, 2, rt::TuneMode::online));
    else
      team = std::make_unique<rt::ProcessTeam>(
          tuned_cfg(p, 2, rt::TuneMode::online));
    auto* words = reinterpret_cast<std::uint64_t*>(
        team->shared_alloc(sizeof(std::uint64_t) * p * calls));
    run_logged_allreduce(*team, calls, 16384, words);
    for (int c = 0; c < calls; ++c) seq[which].push_back(words[c * p]);
  }
  EXPECT_EQ(seq[0], seq[1]);
  // ... and exploration actually happened (eps = 1 explores every call
  // once the slot exists, i.e. from call 2 on).
  bool explored = false;
  for (const auto w : seq[0])
    if (plan::Plan::unpack(w).arm != 0) explored = true;
  EXPECT_TRUE(explored);
}

TEST(PlanOnline, ExploredArmsStillComputeCorrectReductions) {
  EnvGuard g("YHCCL_TUNE_EPS", "1");
  rt::ThreadTeam team(tuned_cfg(6, 2, rt::TuneMode::online));
  const std::size_t count = 5000;
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> in(count), out(count);
    test::fill_buffer(in.data(), count, Datatype::f64, ctx.rank(),
                      ReduceOp::sum);
    for (int c = 0; c < 30; ++c) {
      coll::allreduce(ctx, in.data(), out.data(), count, Datatype::f64,
                      ReduceOp::sum);
      ASSERT_TRUE(test::check_reduced(out.data(), count, Datatype::f64,
                                      ctx.nranks(), ReduceOp::sum));
    }
  });
  EXPECT_GT(plan::tune_stats(team).explores, 0u);
}

// ---- the slot arm never serves above its capacity ----------------------------

TEST(PlanSlot, ArmTablesAndLoadedPlansStayInsideTheSlotBand) {
  rt::ThreadTeam team(tuned_cfg(4, 2, rt::TuneMode::prior));
  const rt::Topology& topo = team.topo();
  const CollOpts opts;
  const std::size_t cap = rt::slot_capacity(4);
  // Online arm tables offer the slot arm exactly on slot-side keys.
  for (const auto kind :
       {CollKind::allreduce, CollKind::reduce, CollKind::reduce_scatter,
        CollKind::broadcast, CollKind::allgather})
    for (const std::size_t bytes :
         {std::size_t{64}, cap, cap + 1, std::size_t{64} << 10,
          std::size_t{4} << 20}) {
      const auto key = plan::make_key(kind, bytes, Datatype::f64,
                                      ReduceOp::sum, topo, opts);
      bool offers_slot = false;
      for (int a = 0; a < plan::arm_count(key, opts, topo); ++a)
        offers_slot = offers_slot ||
                      plan::arm_plan(a, key, opts, topo, team.config().cache)
                              .algorithm == Algorithm::slot;
      EXPECT_EQ(offers_slot, (key.bucket & plan::kSlotSide) != 0)
          << coll::coll_kind_name(kind) << " bytes=" << bytes;
    }

  // A warmed slot plan loads only for a slot-side key.
  char sig[17];
  std::snprintf(sig, sizeof sig, "%016llx",
                static_cast<unsigned long long>(team.plan_signature()));
  bench::Json plans = bench::Json::array();
  for (const std::size_t bytes : {std::size_t{64}, cap + 1}) {
    bench::Json e = bench::Json::object();
    e.set("signature", sig);
    e.set("collective", "allreduce");
    e.set("dtype", "f64");
    e.set("op", "sum");
    e.set("algorithm", "slot");
    e.set("nt", "adaptive");
    e.set("source", "bench");
    e.set("ranks", 4);
    e.set("sockets", 2);
    e.set("bucket", static_cast<int>(plan::bucket_of(CollKind::allreduce,
                                                     bytes, 4, 2, opts)));
    e.set("slice_max", 0);
    e.set("dpml_chunk", 0);
    e.set("arm", 0);
    e.set("nt_prior", false);
    plans.push_back(std::move(e));
  }
  bench::Json doc = bench::Json::object();
  doc.set("schema", plan::kPlanSchema);
  doc.set("plans", std::move(plans));
  EXPECT_EQ(plan::load_plans(team, doc), 1);
  const auto in_band = plan::query(team, CollKind::allreduce, 64,
                                   Datatype::f64, ReduceOp::sum);
  EXPECT_EQ(in_band.algorithm, Algorithm::slot);
  EXPECT_EQ(in_band.source, plan::PlanSource::bench);
  const auto above = plan::query(team, CollKind::allreduce, cap + 1,
                                 Datatype::f64, ReduceOp::sum);
  EXPECT_EQ(above.algorithm, Algorithm::ma_socket_aware);
  EXPECT_EQ(above.source, plan::PlanSource::prior);
}

TEST(PlanSlot, ExploringTheSlotBandStaysCorrect) {
  // eps = 1: every call picks a random arm, so slot calls interleave with
  // DPML / MA / pipelined calls of the same size class.
  EnvGuard g("YHCCL_TUNE_EPS", "1");
  rt::ThreadTeam team(tuned_cfg(6, 2, rt::TuneMode::online));
  const std::size_t count = 300;  // 6 * 2.4 KB: inside the slot band
  team.run([&](rt::RankCtx& ctx) {
    const int p = ctx.nranks();
    std::vector<double> in(count), out(count), want(count);
    for (int c = 0; c < 30; ++c) {
      const int root = c % p;
      test::fill_buffer(in.data(), count, Datatype::f64, ctx.rank(),
                        ReduceOp::sum);
      coll::allreduce(ctx, in.data(), out.data(), count, Datatype::f64,
                      ReduceOp::sum);
      ASSERT_TRUE(test::check_reduced(out.data(), count, Datatype::f64, p,
                                      ReduceOp::sum));
      coll::reduce(ctx, in.data(), out.data(), count, Datatype::f64,
                   ReduceOp::sum, root);
      if (ctx.rank() == root)
        ASSERT_TRUE(test::check_reduced(out.data(), count, Datatype::f64, p,
                                        ReduceOp::sum));
      test::fill_buffer(want.data(), count, Datatype::f64, root,
                        ReduceOp::sum);
      if (ctx.rank() == root) out = want;
      coll::broadcast(ctx, out.data(), count, Datatype::f64, root);
      ASSERT_EQ(out, want);
    }
  });
  EXPECT_GT(plan::tune_stats(team).explores, 0u);
}

// ---- explicit-algorithm handling (satellite 2) -------------------------------

TEST(PlanBypass, ExplicitAlgorithmsBypassTheTunerAndAreHonored) {
  rt::ThreadTeam team(tuned_cfg(4, 2, rt::TuneMode::online));
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> buf(1024, ctx.rank() == 0 ? 7.0 : 0.0);
    CollOpts opts;
    opts.algorithm = Algorithm::pipelined;  // explicit: allowed for bcast
    coll::broadcast(ctx, buf.data(), buf.size(), Datatype::f64, 0, opts);
    for (double v : buf) ASSERT_EQ(v, 7.0);

    std::vector<double> in(1024), out(1024);
    test::fill_buffer(in.data(), in.size(), Datatype::f64, ctx.rank(),
                      ReduceOp::sum);
    opts.algorithm = Algorithm::ma_flat;  // explicit arm for a reduction
    coll::allreduce(ctx, in.data(), out.data(), in.size(), Datatype::f64,
                    ReduceOp::sum, opts);
    ASSERT_TRUE(test::check_reduced(out.data(), out.size(), Datatype::f64,
                                    ctx.nranks(), ReduceOp::sum));
  });
  // Explicit calls never touch the cache.
  EXPECT_EQ(plan::tune_stats(team).lookups, 0u);

  // A reduction arm passed to broadcast (one CollOpts driving a mixed
  // trace replay) bypasses the tuner and runs the pipeline as before.
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> buf(64, ctx.rank() == 0 ? 3.0 : 0.0);
    CollOpts opts;
    opts.algorithm = Algorithm::ma_flat;
    coll::broadcast(ctx, buf.data(), buf.size(), Datatype::f64, 0, opts);
    for (double v : buf) ASSERT_EQ(v, 3.0);
  });
  EXPECT_EQ(plan::tune_stats(team).lookups, 0u);

  // The pipeline arm is rejected by the reductions.
  rt::ThreadTeam single(tuned_cfg(2, 1, rt::TuneMode::off));
  EXPECT_THROW(single.run([&](rt::RankCtx& ctx) {
    double in = 1, out = 0;
    CollOpts opts;
    opts.algorithm = Algorithm::pipelined;
    coll::allreduce(ctx, &in, &out, 1, Datatype::f64, ReduceOp::sum, opts);
  }),
               Error);
}

// ---- persistence -------------------------------------------------------------

namespace {

/// A minimal bench report with two arms per size for allreduce: flat MA
/// "wins" on the large size, dpml on the small one.
bench::Json fake_bench_report(int ranks, int sockets,
                              const copy::CacheConfig& cache) {
  bench::Json doc = bench::Json::object();
  doc.set("schema", "yhccl-bench/1");
  bench::Json machine = bench::Json::object();
  machine.set("llc_bytes", cache.llc_bytes);
  machine.set("l2_per_core", cache.l2_per_core);
  machine.set("llc_inclusive", cache.llc_inclusive);
  machine.set("llc_counts", cache.llc_counts);
  doc.set("machine", machine);
  bench::Json series = bench::Json::array();
  const auto cell = [&](const char* alg, std::size_t bytes, double median) {
    bench::Json s = bench::Json::object();
    s.set("bench", "fake");
    s.set("collective", "allreduce");
    s.set("algorithm", alg);
    s.set("ranks", ranks);
    s.set("sockets", sockets);
    s.set("bytes", bytes);
    bench::Json t = bench::Json::object();
    t.set("median_s", median);
    s.set("time", t);
    series.push_back(s);
  };
  cell("flat-MA", 4u << 20, 1e-3);    // beats the socket-aware prior
  cell("socket-MA", 4u << 20, 2e-3);
  cell("dpml-2l", 4u << 10, 1e-5);
  cell("flat-MA", 4u << 10, 9e-5);
  cell("mpi-baseline", 4u << 20, 1e-9);  // unknown arm: must be skipped
  doc.set("series", series);
  return doc;
}

}  // namespace

TEST(PlanPersistence, WarmFromBenchThenLoadOverridesThePrior) {
  const int p = 8, m = 2;
  rt::ThreadTeam team(tuned_cfg(p, m, rt::TuneMode::prior));
  const auto plans =
      plan::warm_from_bench(fake_bench_report(p, m, team.config().cache));
  plan::validate_plan_json(plans);
  ASSERT_EQ(plans["plans"].size(), 2u);

  ASSERT_EQ(plan::load_plans(team, plans), 2);
  // 4 MB allreduce: prior says socket-MA, the bench data says flat MA.
  const auto tuned = plan::query(team, CollKind::allreduce, 4u << 20,
                                 Datatype::f64, ReduceOp::sum);
  EXPECT_EQ(tuned.algorithm, Algorithm::ma_flat);
  EXPECT_EQ(tuned.source, plan::PlanSource::bench);
  // 4 KB allreduce: bench agrees with the prior (dpml).
  EXPECT_EQ(plan::query(team, CollKind::allreduce, 4u << 10, Datatype::f64,
                        ReduceOp::sum)
                .algorithm,
            Algorithm::dpml_two_level);
  // Unrelated keys still serve the prior.
  EXPECT_EQ(plan::query(team, CollKind::reduce, 4u << 20, Datatype::f64,
                        ReduceOp::sum)
                .source,
            plan::PlanSource::prior);

  // The tuned decision is what actually runs.
  auto* words =
      reinterpret_cast<std::uint64_t*>(team.shared_alloc(sizeof(std::uint64_t) * p));
  team.run([&](rt::RankCtx& ctx) {
    const std::size_t count = (4u << 20) / sizeof(double);
    std::vector<double> a(count), b(count);
    test::fill_buffer(a.data(), count, Datatype::f64, ctx.rank(),
                      ReduceOp::sum);
    coll::allreduce(ctx, a.data(), b.data(), count, Datatype::f64,
                    ReduceOp::sum);
    words[ctx.rank()] = plan::last_plan_word();
  });
  EXPECT_EQ(plan::Plan::unpack(words[0]).algorithm, Algorithm::ma_flat);
}

TEST(PlanPersistence, SaveLoadSaveIsAFixpointWithIdenticalDecisions) {
  const int p = 8, m = 2;
  rt::ThreadTeam a(tuned_cfg(p, m, rt::TuneMode::prior));
  const auto warmed =
      plan::warm_from_bench(fake_bench_report(p, m, a.config().cache));
  ASSERT_GT(plan::load_plans(a, warmed), 0);
  const auto saved = plan::save_plans(a);
  plan::validate_plan_json(saved);

  rt::ThreadTeam b(tuned_cfg(p, m, rt::TuneMode::prior));
  ASSERT_EQ(plan::load_plans(b, saved),
            static_cast<int>(saved["plans"].size()));
  const auto saved2 = plan::save_plans(b);
  EXPECT_EQ(saved.dump(2), saved2.dump(2));

  for (const std::size_t bytes : {4u << 10, 64u << 10, 1u << 20, 4u << 20}) {
    const auto pa = plan::query(a, CollKind::allreduce, bytes, Datatype::f64,
                                ReduceOp::sum);
    const auto pb = plan::query(b, CollKind::allreduce, bytes, Datatype::f64,
                                ReduceOp::sum);
    EXPECT_EQ(pa.pack(), pb.pack()) << "bytes=" << bytes;
  }

  // Plans from a different shape or machine never load.
  rt::ThreadTeam other(tuned_cfg(4, 1, rt::TuneMode::prior));
  EXPECT_EQ(plan::load_plans(other, saved), 0);
}

TEST(PlanPersistence, PlanFileEnvWarmsTheRegistryOnFirstUse) {
  const int p = 8, m = 2;
  const std::string path = ::testing::TempDir() + "yhccl_plans_test.json";
  {
    rt::ThreadTeam staging(tuned_cfg(p, m, rt::TuneMode::prior));
    const auto warmed = plan::warm_from_bench(
        fake_bench_report(p, m, staging.config().cache));
    ASSERT_GT(plan::load_plans(staging, warmed), 0);
    plan::save_plans_file(staging, path);
  }
  EnvGuard g("YHCCL_PLAN_FILE", path.c_str());
  rt::ThreadTeam team(tuned_cfg(p, m, rt::TuneMode::prior));
  auto* words =
      reinterpret_cast<std::uint64_t*>(team.shared_alloc(sizeof(std::uint64_t) * p));
  run_logged_allreduce(team, 1, (4u << 20) / sizeof(double), words);
  EXPECT_EQ(plan::Plan::unpack(words[0]).algorithm, Algorithm::ma_flat);
  EXPECT_EQ(plan::Plan::unpack(words[0]).source, plan::PlanSource::bench);
  EXPECT_GT(plan::tune_stats(team).loaded, 0u);

  // A missing file warns but serves the prior; a malformed one throws.
  EnvGuard g2("YHCCL_PLAN_FILE", "/nonexistent/plans.json");
  rt::ThreadTeam cold(tuned_cfg(p, m, rt::TuneMode::prior));
  plan::warm_now(cold);
  EXPECT_EQ(plan::tune_stats(cold).loaded, 0u);
  const auto bad = bench::Json::parse("{\"schema\": \"nope\"}");
  EXPECT_THROW(plan::validate_plan_json(bad), Error);
}

// ---- profiler feedback -------------------------------------------------------

TEST(PlanFeedback, ProfilerWaitFractionBiasesTheRegistry) {
  rt::ThreadTeam team(tuned_cfg(4, 2, rt::TuneMode::online));
  coll::CollProfiler prof;
  prof.add(CollKind::allreduce, 1024, 1.0, copy::Dav{}, {}, {},
           /*wait_seconds=*/0.9);
  plan::note_profile(team, prof);
  EXPECT_NEAR(team.plan_registry()->class_wait(
                  static_cast<int>(CollKind::allreduce)),
              0.9, 1e-12);
  EXPECT_EQ(team.plan_registry()->class_wait(
                static_cast<int>(CollKind::broadcast)),
            0.0);
}

// ---- the warm path allocates nothing -----------------------------------------

TEST(PlanHotPath, WarmRepeatCallDoesNotAllocate) {
  EnvGuard g("YHCCL_TUNE_EPS", "0");
  rt::ThreadTeam team(tuned_cfg(4, 2, rt::TuneMode::online));
  const std::size_t count = 16384;
  auto* in = reinterpret_cast<double*>(
      team.shared_alloc(sizeof(double) * count * 4));
  auto* out = reinterpret_cast<double*>(
      team.shared_alloc(sizeof(double) * count * 4));
  auto* delta = reinterpret_cast<std::uint64_t*>(
      team.shared_alloc(sizeof(std::uint64_t)));
  team.run([&](rt::RankCtx& ctx) {
    double* my_in = in + count * ctx.rank();
    double* my_out = out + count * ctx.rank();
    test::fill_buffer(my_in, count, Datatype::f64, ctx.rank(),
                      ReduceOp::sum);
    // Warm the slot (plus the registry's file handshake) first.
    for (int c = 0; c < 2; ++c)
      coll::allreduce(ctx, my_in, my_out, count, Datatype::f64,
                      ReduceOp::sum);
    ctx.barrier();
    const std::uint64_t before = g_allocs.load();
    for (int c = 0; c < 8; ++c)
      coll::allreduce(ctx, my_in, my_out, count, Datatype::f64,
                      ReduceOp::sum);
    ctx.barrier();
    if (ctx.rank() == 0) *delta = g_allocs.load() - before;
  });
  EXPECT_EQ(*delta, 0u) << "warm-path collective calls allocated";
}

// ---- recovery ----------------------------------------------------------------

TEST(PlanRecovery, RegistrySurvivesRecoverAndReKeysTheTopology) {
  EnvGuard g("YHCCL_TUNE_EPS", "0");
  rt::ThreadTeam team(tuned_cfg(4, 2, rt::TuneMode::online));
  auto* words = reinterpret_cast<std::uint64_t*>(
      team.shared_alloc(sizeof(std::uint64_t) * 4));
  run_logged_allreduce(team, 2, 4096, words);
  const auto before = plan::tune_stats(team);
  EXPECT_EQ(before.entries, 1u);
  team.recover();
  // Same membership after a thread-team recovery: the signature and the
  // cached entry both survive, so the next call is a hit.
  run_logged_allreduce(team, 1, 4096, words);
  const auto after = plan::tune_stats(team);
  EXPECT_EQ(after.entries, 1u);
  EXPECT_EQ(after.hits, before.hits + 1);
}
