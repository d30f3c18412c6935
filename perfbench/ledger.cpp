#include "ledger.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>

#include "coll_bench.hpp"
#include "yhccl/copy/kernels.hpp"
#include "yhccl/copy/reduce_kernels.hpp"
#include "yhccl/runtime/thread_team.hpp"

namespace perfbench {

namespace coll = yhccl::coll;

namespace {

using CallFn = std::function<void(RankCtx&, int variant)>;

/// Time `nvariants` alternately inside one Team::run: `blocks` rounds in
/// which every variant runs `n` back-to-back calls after a raw barrier.
/// Round 0 warms up and is dropped.  Returns, per variant, the median over
/// rounds of rank 0's per-call time in µs.
std::vector<double> alternate(Team& team, RawBarrier* sync, int nvariants,
                              int blocks, int n, const CallFn& call) {
  std::vector<std::vector<double>> per(static_cast<std::size_t>(nvariants));
  team.run([&](RankCtx& ctx) {
    const int r = ctx.rank(), p = ctx.nranks();
    pin_to_cpu(r);
    for (int b = 0; b <= blocks; ++b)
      for (int v = 0; v < nvariants; ++v) {
        sync->wait(r, p);
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < n; ++i) call(ctx, v);
        const std::int64_t t1 = now_ns();
        if (r == 0 && b > 0)
          per[static_cast<std::size_t>(v)].push_back(
              static_cast<double>(t1 - t0) / 1e3 / n);
      }
  });
  std::vector<double> med;
  for (const auto& v : per) med.push_back(median(v));
  return med;
}

struct Owned {
  std::byte* p;
  explicit Owned(std::size_t bytes)
      : p(static_cast<std::byte*>(
            std::aligned_alloc(4096, yhccl::round_up(bytes, 4096)))) {
    if (p == nullptr) throw std::bad_alloc();
    std::memset(p, 0, bytes);
  }
  ~Owned() { std::free(p); }
  Owned(const Owned&) = delete;
  Owned& operator=(const Owned&) = delete;
};

}  // namespace

void ledger_runtime(Metrics& m, const LedgerOptions& o) {
  std::vector<double> ctor;
  for (int k = 0; k < 5; ++k) {
    const std::int64_t t0 = now_ns();
    yhccl::rt::ThreadTeam t(hermetic_config(kRanks));
    ctor.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  m.set("runtime.team_ctor_ms", median(ctor), "ms");

  yhccl::rt::ThreadTeam team(hermetic_config(kRanks));
  std::vector<double> spawn;
  for (int k = 0; k < 220; ++k) {
    const std::int64_t t0 = now_ns();
    team.run([](RankCtx&) {});
    if (k >= 20) spawn.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  m.set("runtime.run_spawn_us", median(spawn), "us");

  RawBarrier* sync = make_raw_barrier(team);
  RawBarrier* floor = make_raw_barrier(team);
  const int n = o.smoke ? 2000 : 20000;
  const auto bar = alternate(team, sync, 2, 5, n, [&](RankCtx& ctx, int v) {
    if (v == 0)
      floor->wait(ctx.rank(), ctx.nranks());
    else
      ctx.barrier();
  });
  m.set("runtime.raw_barrier_us", bar[0], "us");
  m.set("runtime.barrier_us", bar[1], "us");
  m.set("runtime.barrier_floor_ratio", bar[1] / bar[0], "ratio");

  // Flag hand-off: rank 0 publishes step k and waits for rank 1's step k;
  // rank 1 mirrors it.  One round trip is two hand-offs.
  std::vector<double> flag;
  team.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    pin_to_cpu(r);
    const std::uint64_t seq = ctx.next_seq();
    std::uint64_t k = 0;
    for (int b = 0; b <= 5; ++b) {
      sync->wait(r, ctx.nranks());
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < n; ++i) {
        const std::uint64_t v = RankCtx::step_value(seq, ++k);
        if (r == 0) {
          ctx.step_publish(v);
          ctx.step_wait(1, v);
        } else if (r == 1) {
          ctx.step_wait(0, v);
          ctx.step_publish(v);
        }
      }
      if (r == 0 && b > 0)
        flag.push_back(static_cast<double>(now_ns() - t0) / 1e3 / (2.0 * n));
    }
  });
  m.set("runtime.flag_pingpong_us", median(flag), "us");
}

void ledger_copy(Metrics& m, const LedgerOptions& o) {
  const std::size_t big = o.smoke ? (8u << 20) : (128u << 20);
  const std::size_t red = big / 4;
  const std::size_t slice = 256u << 10;  // CollOpts::slice_max (Imax)
  Owned src(big), dst(big);
  yhccl::rt::ThreadTeam team(hermetic_config(kRanks));
  std::vector<double> memcpy_g, t_g, nt_g, slice_g, red_g, multi_g;
  auto gbs = [](double bytes, std::int64_t t0) {
    return bytes / static_cast<double>(now_ns() - t0);
  };
  team.run([&](RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    pin_to_cpu(0);
    for (int rep = 0; rep <= 5; ++rep) {
      const bool keep = rep > 0;
      std::int64_t t0 = now_ns();
      std::memcpy(dst.p, src.p, big);
      if (keep) memcpy_g.push_back(gbs(2.0 * big, t0));
      t0 = now_ns();
      yhccl::copy::t_copy(dst.p, src.p, big);
      if (keep) t_g.push_back(gbs(2.0 * big, t0));
      t0 = now_ns();
      yhccl::copy::nt_copy(dst.p, src.p, big);
      if (keep) nt_g.push_back(gbs(2.0 * big, t0));
      const int reps = o.smoke ? 50 : 2000;
      t0 = now_ns();
      for (int i = 0; i < reps; ++i)
        yhccl::copy::t_copy(dst.p, src.p, slice);
      if (keep) slice_g.push_back(gbs(2.0 * slice * reps, t0));
      t0 = now_ns();
      yhccl::copy::reduce_out(dst.p, src.p, src.p + red, red, Datatype::f64,
                              ReduceOp::sum, false);
      if (keep) red_g.push_back(gbs(3.0 * red, t0));
      const void* srcs[kRanks] = {src.p, src.p + red};
      t0 = now_ns();
      yhccl::copy::reduce_out_multi(dst.p, srcs, kRanks, red, Datatype::f64,
                                    ReduceOp::sum, false);
      if (keep) multi_g.push_back(gbs((kRanks + 1.0) * red, t0));
    }
  });
  m.set("copy.memcpy_gbs", median(memcpy_g), "GB/s");
  m.set("copy.t_copy_gbs", median(t_g), "GB/s");
  m.set("copy.nt_copy_gbs", median(nt_g), "GB/s");
  m.set("copy.t_copy_floor_ratio", median(t_g) / median(memcpy_g), "ratio");
  m.set("copy.t_copy_slice_gbs", median(slice_g), "GB/s");
  m.set("copy.reduce_out_gbs", median(red_g), "GB/s");
  m.set("copy.reduce_multi_gbs", median(multi_g), "GB/s");
}

void ledger_coll(Metrics& m, const LedgerOptions& o) {
  yhccl::rt::ThreadTeam team(hermetic_config(kRanks));
  RawBarrier* sync = make_raw_barrier(team);
  const std::size_t large = o.smoke ? (2u << 20) : (32u << 20);
  std::vector<std::unique_ptr<Owned>> send, recv;
  for (int r = 0; r < kRanks; ++r) {
    send.push_back(std::make_unique<Owned>(large));
    recv.push_back(std::make_unique<Owned>(large));
  }
  auto allreduce = [&](RankCtx& ctx, std::size_t bytes,
                       const coll::CollOpts& opts) {
    coll::allreduce(ctx, send[static_cast<std::size_t>(ctx.rank())]->p,
                    recv[static_cast<std::size_t>(ctx.rank())]->p, bytes / 8,
                    Datatype::f64, ReduceOp::sum, opts);
  };

  // Choosing the arm alone.
  std::vector<double> choose;
  const int nchoose = o.smoke ? 20000 : 1000000;
  team.run([&](RankCtx& ctx) {
    if (ctx.rank() != 0) return;
    pin_to_cpu(0);
    const coll::CollOpts opts;
    int sink = 0;
    for (int b = 0; b <= 5; ++b) {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < nchoose; ++i)
        sink += static_cast<int>(coll::choose_reduction_algorithm(
            ctx, 8 + static_cast<std::size_t>(i & 7) * 8, opts));
      if (b > 0)
        choose.push_back(static_cast<double>(now_ns() - t0) / nchoose);
    }
    if (sink == -1) std::abort();  // keeps the loop observable
  });
  m.set("coll.choose_ns", median(choose), "ns");

  // Dispatch: the automatic entry minus the arm the switching rule names.
  coll::CollOpts arm;
  team.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0)
      arm.algorithm = coll::choose_reduction_algorithm(ctx, 8, {});
  });
  const int ndisp = o.smoke ? 500 : 5000;
  const auto disp = alternate(team, sync, 2, 5, ndisp, [&](RankCtx& ctx, int v) {
    allreduce(ctx, 8, v == 0 ? coll::CollOpts{} : arm);
  });
  m.set("coll.dispatch_ns", (disp[0] - disp[1]) * 1e3, "ns");

  // Switch regret: automatic time over the fastest explicit arm.
  struct Class {
    const char* name;
    std::size_t bytes;
    int n;
  };
  const Class classes[] = {{"small", 4u << 10, o.smoke ? 200 : 2000},
                           {"medium", 128u << 10, o.smoke ? 20 : 200},
                           {"large", large, o.smoke ? 1 : 3}};
  for (const Class& c : classes) {
    coll::CollOpts ma, dpml;
    ma.algorithm = coll::Algorithm::ma_flat;
    dpml.algorithm = coll::Algorithm::dpml_two_level;
    const auto t = alternate(team, sync, 3, 5, c.n, [&](RankCtx& ctx, int v) {
      allreduce(ctx, c.bytes, v == 0 ? coll::CollOpts{} : v == 1 ? ma : dpml);
    });
    m.set(std::string("coll.switch_regret.") + c.name,
          t[0] / std::min(t[1], t[2]), "ratio");
  }
}

void ledger_overheads(Metrics& m, const LedgerOptions& o, const Patterns& pat,
                      Tally& tally) {
  auto base_cfg = hermetic_config(kRanks);
  auto metrics_cfg = base_cfg;
  metrics_cfg.metrics = yhccl::metrics::Mode::on;
  auto trace_cfg = base_cfg;
  trace_cfg.trace = yhccl::trace::Mode::spans;
  yhccl::rt::ThreadTeam base(base_cfg), metered(metrics_cfg),
      traced(trace_cfg);
  const int per_run = o.smoke ? 10 : 200;
  CollBench bench(pat, 16u << 10, 16u << 10, 33,
                  static_cast<std::size_t>(per_run) * 33);
  CollBench::Bound bound[] = {bench.attach(base), bench.attach(metered),
                              bench.attach(traced)};
  std::vector<double> p50[3];
  std::uint64_t idx = 1u << 20;  // rounds not used by the timed workload
  for (int seg = 0; seg < 6; ++seg)
    for (int t = 0; t < 3; ++t) {
      std::vector<std::vector<Op>> rounds;
      for (int i = 0; i < per_run; ++i)
        rounds.push_back(make_round(Workload::small_mix, o.seed, idx++, kRanks, 1.0));
      CollStats s(rounds.size() * 33);
      bench.run(bound[t], rounds, {}, false, 0, s);
      tally.attempted += s.tally.attempted;
      tally.failed += s.tally.failed;
      if (seg > 0) p50[t].push_back(s.lat_us.quantile(0.5));
    }
  m.set("metrics.overhead_ratio", median(p50[1]) / median(p50[0]), "ratio");
  m.set("trace.overhead_ratio", median(p50[2]) / median(p50[0]), "ratio");
}

void ledger_amr(Metrics& m, const AmrStats& s) {
  m.set("apps.amr.compute_ms", median(s.compute_ms), "ms");
  m.set("apps.amr.comm_ms", median(s.comm_ms), "ms");
}

}  // namespace perfbench
