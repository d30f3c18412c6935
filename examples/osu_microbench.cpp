// OSU-style micro-benchmark CLI — the interface the paper's artifact uses
// for evaluation (appendix C.3: `mpiexec -n 64 ./osu_allreduce -c -m
// 65536:268435456`), reimplemented over YHCCL teams.
//
//   $ ./examples/osu_microbench <collective> [-n ranks] [-s sockets]
//        [-m min:max] [-i iters] [-c] [-a algorithm] [-P policy]
//
//   collective: allreduce | reduce | reduce_scatter | bcast | allgather
//               | alltoall
//   -m min:max  message size sweep in bytes (powers of two)
//   -i iters    timed calls per size (default: 2000 up to 64 KB, 50 above)
//   -c          validate allreduce / reduce / bcast results element-wise
//   -a          auto | slot | ma | socket-ma | dpml-2l | pipelined
//   -P          adaptive | t-copy | nt-copy | memmove (CollOpts::policy)
//
// Like OSU, every size runs inside one Team::run: a warm-up, a barrier,
// then `iters` back-to-back calls, so rank wake-up is not part of the
// time.  Rank r pins itself to CPU r when the ranks fit the CPUs
// (unpinned ranks of a thread team fall into a slow mode where one barrier
// costs about 10x more).  Columns: size, then the per-call latency (us) averaged
// over the ranks and its min/max across ranks, then the average in units
// of one node barrier measured the same way in the same run, then the
// cost model's prediction (us) for the arm that ran (for `-a auto`, the
// arm the prior picked, named in the last column).  A `# cache:` header
// line gives the detected c' and c'', the LLC probe's temporal and
// streaming GB/s with its verdict, and the capacity C the adaptive policy
// compares each working set with at this p.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/extra.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/common/time.hpp"
#include "yhccl/runtime/thread_team.hpp"

using namespace yhccl;

namespace {

struct Args {
  std::string collective = "allreduce";
  int ranks = 4;
  int sockets = 2;
  std::size_t min_bytes = 16 << 10;
  std::size_t max_bytes = 16 << 20;
  int iters = 0;  ///< 0: by size
  bool check = false;
  coll::Algorithm algo = coll::Algorithm::automatic;
  copy::CopyPolicy policy = copy::CopyPolicy::adaptive;
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc > 1 && argv[1][0] != '-') a.collective = argv[1];
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (s == "-n") a.ranks = std::atoi(next());
    else if (s == "-s") a.sockets = std::atoi(next());
    else if (s == "-i") a.iters = std::atoi(next());
    else if (s == "-c") a.check = true;
    else if (s == "-m") {
      const std::string range = next();
      const auto colon = range.find(':');
      a.min_bytes = std::strtoull(range.c_str(), nullptr, 10);
      a.max_bytes = colon == std::string::npos
                        ? a.min_bytes
                        : std::strtoull(range.c_str() + colon + 1, nullptr,
                                        10);
    } else if (s == "-a") {
      const std::string v = next();
      for (const auto alg :
           {coll::Algorithm::automatic, coll::Algorithm::slot,
            coll::Algorithm::ma_flat, coll::Algorithm::ma_socket_aware,
            coll::Algorithm::dpml_two_level, coll::Algorithm::pipelined})
        if (v == coll::algorithm_name(alg)) a.algo = alg;
    } else if (s == "-P") {
      const std::string v = next();
      for (const auto pol :
           {copy::CopyPolicy::adaptive, copy::CopyPolicy::always_temporal,
            copy::CopyPolicy::always_nt, copy::CopyPolicy::memmove_model})
        if (v == copy::policy_name(pol)) a.policy = pol;
    }
  }
  return a;
}

/// Pin rank r to CPU r; ranks that outnumber the CPUs stay unpinned.
void pin_rank(int rank, int ranks) {
  if (ranks > static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN))) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(rank, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Kind and switching-rule message size of one call of `c`, for the model.
bool model_kind(const std::string& c, std::size_t bytes, int p,
                coll::CollKind* kind, std::size_t* msg) {
  *msg = bytes;
  if (c == "allreduce") *kind = coll::CollKind::allreduce;
  else if (c == "reduce") *kind = coll::CollKind::reduce;
  else if (c == "bcast") *kind = coll::CollKind::broadcast;
  else if (c == "reduce_scatter" || c == "allgather") {
    // Both move count / p elements per rank; reduce_scatter is sized by
    // its total input, allgather by the per-rank block.
    const std::size_t block = bytes / 8 / static_cast<std::size_t>(p) * 8;
    *kind = c == "allgather" ? coll::CollKind::allgather
                             : coll::CollKind::reduce_scatter;
    *msg = c == "allgather" ? block : block * static_cast<std::size_t>(p);
  } else {
    return false;
  }
  return true;
}

/// Seconds per call of `body`, timed on this rank after a barrier.
template <class Body>
double time_calls(rt::RankCtx& ctx, int iters, Body&& body) {
  for (int i = 0; i < std::max(iters / 10, 1); ++i) body();
  ctx.barrier();
  const double t0 = wall_seconds();
  for (int i = 0; i < iters; ++i) body();
  return (wall_seconds() - t0) / iters;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  rt::TeamConfig cfg;
  cfg.nranks = a.ranks;
  cfg.nsockets = std::min(a.sockets, a.ranks);
  rt::ThreadTeam team(cfg);
  const int p = a.ranks;
  const std::string& c = a.collective;

  std::printf(
      "# YHCCL OSU-style %s benchmark (p=%d, m=%d, algo=%s, policy=%s%s)\n",
      c.c_str(), p, cfg.nsockets, coll::algorithm_name(a.algo),
      copy::policy_name(a.policy), a.check ? ", -c" : "");
  const copy::LlcProbe& probe = copy::llc_probe();
  std::printf("# cache: c'=%zu KB, c''=%zu KB; LLC probe over %zu KB: "
              "t-copy %.2f GB/s, nt-copy %.2f GB/s -> LLC %s; C(p=%d) = "
              "%zu KB\n",
              cfg.cache.llc_bytes >> 10, cfg.cache.l2_per_core >> 10,
              probe.bytes >> 10, probe.t_gbs, probe.nt_gbs,
              !probe.ran          ? "counts (not probed)"
              : probe.llc_counts ? "counts"
                                 : "does not count",
              p, cfg.cache.available(p) >> 10);
  // The cost model's sync constants, probed on this team: one node barrier,
  // and one flag hand-off while every rank posts a step and then waits for
  // its left neighbour's (an MA round's pattern).
  double probe_bar = 0, probe_flag = 0;
  team.run([&](rt::RankCtx& ctx) {
    const int r = ctx.rank();
    pin_rank(r, p);
    const std::uint64_t seq = ctx.next_seq();
    std::uint64_t k = 0;
    const double bar = time_calls(ctx, 20000, [&] { ctx.barrier(); });
    const double flag = time_calls(ctx, 20000, [&] {
      const std::uint64_t v = rt::RankCtx::step_value(seq, ++k);
      ctx.step_publish(v);
      if (p > 1) ctx.step_wait((r + p - 1) % p, v);
    });
    if (r == 0) {
      probe_bar = bar;
      probe_flag = flag;
    }
  });
  std::printf("# probes: barrier %.3f us, flag hand-off %.3f us\n",
              probe_bar * 1e6, probe_flag * 1e6);
  std::printf("%-12s %12s %12s %12s %10s %10s  %s\n", "# Size", "Avg(us)",
              "Min(us)", "Max(us)", "Barriers", "Model(us)", "Arm");

  std::vector<double> per_rank(static_cast<std::size_t>(p));
  std::vector<double> barrier_s(static_cast<std::size_t>(p));
  for (std::size_t bytes = a.min_bytes; bytes <= a.max_bytes; bytes *= 2) {
    const std::size_t count = std::max<std::size_t>(bytes / 8, 1);
    const std::size_t rcount =
        c == "allgather" || c == "alltoall" ? count * p : count;
    coll::CollOpts opts;
    opts.algorithm = a.algo;
    opts.policy = a.policy;
    std::vector<std::vector<double>> send(p), recv(p);
    for (int r = 0; r < p; ++r) {
      send[r].assign(count, 1.0 + r);
      recv[r].assign(rcount, 0.0);
    }
    if (c == "bcast") recv[0] = send[0];  // the root's payload
    const int iters =
        a.iters > 0 ? a.iters : bytes <= (64u << 10) ? 2000 : 50;
    team.run([&](rt::RankCtx& ctx) {
      const int r = ctx.rank();
      pin_rank(r, p);
      double* sb = send[r].data();
      double* rb = recv[r].data();
      std::function<void()> call;
      if (c == "allreduce")
        call = [&] {
          coll::allreduce(ctx, sb, rb, count, Datatype::f64, ReduceOp::sum,
                          opts);
        };
      else if (c == "reduce")
        call = [&] {
          coll::reduce(ctx, sb, r == 0 ? rb : nullptr, count, Datatype::f64,
                       ReduceOp::sum, 0, opts);
        };
      else if (c == "reduce_scatter")
        call = [&] {
          coll::reduce_scatter(ctx, sb, rb, count / static_cast<std::size_t>(p),
                               Datatype::f64, ReduceOp::sum, opts);
        };
      else if (c == "bcast")
        call = [&] {
          coll::broadcast(ctx, rb, count, Datatype::f64, 0, opts);
        };
      else if (c == "allgather")
        call = [&] {
          coll::allgather(ctx, sb, rb, count / static_cast<std::size_t>(p),
                          Datatype::f64, opts);
        };
      else if (c == "alltoall")
        call = [&] {
          coll::alltoall(ctx, sb, rb, count / static_cast<std::size_t>(p),
                         Datatype::f64, opts);
        };
      else
        raise("unknown collective: " + c);
      per_rank[static_cast<std::size_t>(r)] = time_calls(ctx, iters, call);
      barrier_s[static_cast<std::size_t>(r)] =
          time_calls(ctx, 2000, [&] { ctx.barrier(); });
    });
    double sum = 0, mn = 1e30, mx = 0, bar = 0;
    for (int r = 0; r < p; ++r) {
      sum += per_rank[r];
      mn = std::min(mn, per_rank[r]);
      mx = std::max(mx, per_rank[r]);
      bar += barrier_s[r];
    }
    bool ok = true;
    if (a.check) {
      // Every rank's operand is 1 + rank, so every reduced element is
      // p(p+1)/2 and every broadcast element the root's 1.0.
      const double sumv = p * (p + 1) / 2.0;
      const auto all_equal = [&](const std::vector<double>& v, double x) {
        return std::all_of(v.begin(), v.end(),
                           [x](double y) { return y == x; });
      };
      if (c == "allreduce")
        for (int r = 0; r < p; ++r) ok = ok && all_equal(recv[r], sumv);
      else if (c == "reduce")
        ok = all_equal(recv[0], sumv);
      else if (c == "bcast")
        for (int r = 0; r < p; ++r) ok = ok && all_equal(recv[r], 1.0);
    }
    coll::CollKind kind{};
    std::size_t msg = 0;
    const bool modeled = model_kind(c, bytes, p, &kind, &msg);
    const rt::Topology& topo = team.topo();
    const coll::Algorithm arm =
        modeled ? coll::plan::choose_algorithm(topo, kind, msg, opts)
                : a.algo;
    const double model_us =
        modeled ? coll::plan::predicted_us(kind, arm, msg, p,
                                           topo.nsockets(), opts)
                : 0.0;
    std::printf("%-12zu %12.2f %12.2f %12.2f %10.2f %10.2f  %s%s\n", bytes,
                sum / p * 1e6, mn * 1e6, mx * 1e6, sum / bar, model_us,
                coll::algorithm_name(arm),
                a.check ? (ok ? "  [OK]" : "  [FAILED]") : "");
    if (!ok) return 1;
  }
  return 0;
}
