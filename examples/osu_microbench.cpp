// OSU-style micro-benchmark CLI — the interface the paper's artifact uses
// for evaluation (appendix C.3: `mpiexec -n 64 ./osu_allreduce -c -m
// 65536:268435456`), reimplemented over YHCCL teams.
//
//   $ ./examples/osu_microbench <collective> [-n ranks] [-s sockets]
//        [-m min:max] [-i iters] [-c] [-a algorithm]
//
//   collective: allreduce | reduce | reduce_scatter | bcast | allgather
//               | alltoall
//   -m min:max  message size sweep in bytes (powers of two)
//   -i iters    timed calls per size (default: 2000 up to 64 KB, 50 above)
//   -c          validate allreduce / reduce / bcast results element-wise
//   -a          auto | slot | ma | socket-ma | dpml-2l | pipelined
//
// Like OSU, every size runs inside one Team::run: a warm-up, a barrier,
// then `iters` back-to-back calls, so rank wake-up is not part of the
// time.  Columns: size, then the per-call latency (us) averaged over the
// ranks and its min/max across ranks, then the average in units of one
// node barrier measured the same way in the same run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/extra.hpp"
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
    }
  }
  return a;
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

  std::printf("# YHCCL OSU-style %s benchmark (p=%d, m=%d, algo=%s%s)\n",
              c.c_str(), p, cfg.nsockets, coll::algorithm_name(a.algo),
              a.check ? ", -c" : "");
  std::printf("%-12s %12s %12s %12s %10s\n", "# Size", "Avg(us)", "Min(us)",
              "Max(us)", "Barriers");

  std::vector<double> per_rank(static_cast<std::size_t>(p));
  std::vector<double> barrier_s(static_cast<std::size_t>(p));
  for (std::size_t bytes = a.min_bytes; bytes <= a.max_bytes; bytes *= 2) {
    const std::size_t count = std::max<std::size_t>(bytes / 8, 1);
    const std::size_t rcount =
        c == "allgather" || c == "alltoall" ? count * p : count;
    coll::CollOpts opts;
    opts.algorithm = a.algo;
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
    std::printf("%-12zu %12.2f %12.2f %12.2f %10.2f%s\n", bytes,
                sum / p * 1e6, mn * 1e6, mx * 1e6, sum / bar,
                a.check ? (ok ? "  [OK]" : "  [FAILED]") : "");
    if (!ok) return 1;
  }
  return 0;
}
