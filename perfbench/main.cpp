// perfbench: the repository benchmark binary (see README.md).
//
//   perfbench --workload small_mix|large_mix|app_amr --seed N --seconds S
//             --trace 0|1 [--smoke] [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of stdout is the result object; the line before it
// describes the host state of the run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <string>

#include "amr_bench.hpp"
#include "coll_bench.hpp"
#include "ledger.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "yhccl/runtime/thread_team.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::small_mix;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "small_mix|large_mix|app_amr --seed N --seconds S --trace 0|1 "
               "[--smoke] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      have_workload = true;
      a.workload_name = v;
      if (v == "small_mix") a.workload = Workload::small_mix;
      else if (v == "large_mix") a.workload = Workload::large_mix;
      else if (v == "app_amr") a.workload = Workload::app_amr;
      else usage(("unknown workload " + v).c_str());
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
      if (!(a.seconds > 0 && a.seconds <= 60)) usage("--seconds must be in (0, 60]");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// The library reads YHCCL_* variables lazily (ISA cap, fault plans, plan
/// files, ...); a run must not depend on them.
void reject_library_env() {
  bool any = false;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "YHCCL_", 6) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      any = true;
    }
  if (any) std::exit(2);
}

/// Set-up is short and its cost drifts with the host's state, so a run
/// samples it about kSetupReps times, spread over its timed phase (between
/// timed Team::run calls), and reports the median.
constexpr int kSetupReps = 61;

class SetupSampler {
 public:
  SetupSampler(std::function<double()> once, double seconds, bool enabled)
      : once_(std::move(once)),
        interval_ns_(static_cast<std::int64_t>(seconds * 1e9 / kSetupReps)),
        enabled_(enabled) {}
  /// Take a sample if one is due (the first call always takes one).
  void tick() {
    if (!enabled_ || now_ns() < next_ns_) return;
    v_.push_back(once_());
    next_ns_ = now_ns() + interval_ns_;
  }
  double median() const { return perfbench::median(v_); }

 private:
  std::function<double()> once_;
  std::int64_t interval_ns_;
  bool enabled_;
  std::int64_t next_ns_ = 0;
  std::vector<double> v_;
};

void set_counts(Metrics& m, const Counts& k) {
  const double n = static_cast<double>(k.calls);
  m.set("copy.dav_bytes_per_call", static_cast<double>(k.dav) / n, "B");
  m.set("copy.kernel_calls_per_call", static_cast<double>(k.kernels) / n,
        "count");
  m.set("runtime.barriers_per_call", static_cast<double>(k.barriers) / n,
        "count");
  m.set("runtime.flag_ops_per_call", static_cast<double>(k.flags) / n,
        "count");
}

/// Two untimed counter passes must agree exactly.
void check_counts(const Counts& a, const Counts& b, Tally& t) {
  if (a == b && a.calls > 0) return;
  std::fprintf(stderr, "perfbench: exact counts differ between two passes\n");
  t.correct = false;
}

void set_kind_self(Metrics& m, const std::vector<double> (&self)[kKinds]) {
  for (int k = 0; k < kKinds; ++k)
    m.set(std::string("coll.") + kind_name(static_cast<Kind>(k)) + ".self_us",
          median(self[k]), "us");
}

void set_end_to_end(Metrics& m, double setup_s, double lat_p50,
                    double lat_p99, double gbs, double step_p50,
                    double step_p90) {
  m.set("setup_s", setup_s, "s");
  m.set("lat_us_p50", lat_p50, "us");
  m.set("lat_us_p99", lat_p99, "us");
  m.set("algbw_gbs", gbs, "GB/s");
  m.set("step_ms_p50", step_p50, "ms");
  m.set("step_ms_p90", step_p90, "ms");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void ledger_common(Metrics& m, const Args& a, const Patterns& pat,
                   Tally& tally) {
  const LedgerOptions o{a.seed, a.smoke};
  ledger_runtime(m, o);
  ledger_copy(m, o);
  ledger_coll(m, o);
  ledger_overheads(m, o, pat, tally);
}

// ---- small_mix / large_mix ------------------------------------------------------

std::vector<Kind> workload_kinds(Workload w) {
  if (w == Workload::small_mix)
    return {Kind::allreduce, Kind::reduce, Kind::broadcast};
  if (w == Workload::large_mix)
    return {Kind::allreduce, Kind::reduce_scatter, Kind::broadcast,
            Kind::allgather};
  return {Kind::allreduce};
}

std::vector<Kind> missing_kinds(Workload w) {
  std::vector<Kind> out;
  const auto have = workload_kinds(w);
  for (int k = 0; k < kKinds; ++k)
    if (std::find(have.begin(), have.end(), static_cast<Kind>(k)) == have.end())
      out.push_back(static_cast<Kind>(k));
  return out;
}

AmrStats short_amr(const Args& a, Tally& tally);

void run_coll(const Args& a, Metrics& m, Tally& tally, SpanLog& log) {
  const bool large = a.workload == Workload::large_mix;
  const double scale = a.smoke ? 1.0 / 16 : 1.0;
  const std::size_t round_len = large ? 8 : 33;
  const std::size_t max_bytes =
      large ? static_cast<std::size_t>(128.0 * scale * (1 << 20)) + 4096
            : (16u << 10);
  const int rounds_per_run = large ? 1 : (a.smoke ? 20 : 200);
  const std::size_t max_calls = static_cast<std::size_t>(rounds_per_run) * round_len;
  Patterns pat(a.seed, kRanks);

  // Set-up: team construction plus the first call of each of the
  // workload's kinds, at 8 B, on a fresh team each time.  Large first calls
  // would add page faults on the scratch, whose cost flips between two
  // modes from run to run on the reference VM.
  const auto first =
      make_probe_round(workload_kinds(a.workload), 8, a.seed, 0, kRanks);
  std::vector<std::vector<std::byte>> sbuf(kRanks, std::vector<std::byte>(64)),
      obuf(kRanks, std::vector<std::byte>(64));
  const auto cfg = hermetic_config(kRanks);
  SetupSampler setup(
      [&] {
        const std::int64_t t0 = now_ns();
        yhccl::rt::ThreadTeam team(cfg);
        team.run([&](RankCtx& ctx) {
          pin_to_cpu(ctx.rank());
          const auto r = static_cast<std::size_t>(ctx.rank());
          for (const Op& o : first)
            issue(ctx, o, sbuf[r].data(), obuf[r].data(), {});
        });
        return static_cast<double>(now_ns() - t0) / 1e9;
      },
      a.seconds, !a.trace);

  // The traced stats (and their sample memory) exist only in a traced run.
  std::optional<CollStats> untraced(std::in_place), traced;
  if (a.trace) traced.emplace().detail = true;
  {
    yhccl::rt::ThreadTeam team(hermetic_config(kRanks));
    CollBench bench(pat, max_bytes, max_bytes, round_len, max_calls);
    CollBench::Bound b =
        bench.attach(team, a.trace ? max_calls + rounds_per_run + 16 : 0);

    // Warm-up run (checked, not timed), then two exact counter passes.
    std::uint64_t idx = 0;
    auto rounds_from = [&](int n) {
      std::vector<std::vector<Op>> rounds;
      for (int i = 0; i < n; ++i)
        rounds.push_back(make_round(a.workload, a.seed, idx++, kRanks, scale));
      return rounds;
    };
    const auto warm = rounds_from(large ? 1 : 20);
    CollStats scratch(max_calls);
    bench.run(b, warm, {}, false, 0, scratch);
    tally.attempted += scratch.tally.attempted;
    tally.failed += scratch.tally.failed;
    const Counts c1 = bench.count(b, warm, tally);
    const Counts c2 = bench.count(b, warm, tally);
    check_counts(c1, c2, tally);
    if (a.trace) set_counts(m, c1);

    // Timed closed loop; the traced run alternates traced and untraced
    // segments over half the time and spends the rest on the ledger.
    // large_mix runs one round per segment and cycles through
    // kLargeRounds distinct rounds (an odd count, so traced and untraced
    // segments both see each); `reps[config]` keeps each untraced repeat's
    // per-call times.
    const double budget = a.trace ? a.seconds * 0.5 : a.seconds;
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(budget * 1e9);
    std::uint64_t calls = 0;
    std::vector<std::vector<std::vector<double>>> reps(large ? kLargeRounds : 0);
    for (std::size_t seg = 0; now_ns() < deadline; ++seg) {
      setup.tick();
      const bool tr = a.trace && seg % 2 == 0;
      const std::size_t config = seg % kLargeRounds;
      const auto rounds =
          large ? std::vector<std::vector<Op>>{make_round(
                      a.workload, a.seed, 1 + config, kRanks, scale)}
                : rounds_from(rounds_per_run);
      CollStats& out = tr ? *traced : *untraced;
      if (bench.run(b, rounds, {}, tr, calls, out) && large && !tr)
        reps[config].push_back(out.run_lat_us);
      if (tr) log.harvest(*b.spans, kRanks);
      calls += rounds.size() * round_len;
    }
    if (a.trace) {
      // Kinds this workload does not issue get probe calls, so every kind
      // has a self-time row.
      const std::size_t probe_bytes = large ? max_bytes / 4 : 1024;
      const int nprobe = large ? 2 : (a.smoke ? 20 : 200);
      std::vector<std::vector<Op>> probes;
      for (int i = 0; i < nprobe; ++i)
        probes.push_back(make_probe_round(missing_kinds(a.workload),
                                          probe_bytes, a.seed, 1 + i, kRanks));
      for (std::size_t i = 0; i < probes.size();) {
        std::vector<std::vector<Op>> chunk;
        std::size_t n = 0;
        while (i < probes.size() && n + probes[i].size() <= max_calls)
          n += probes[i].size(), chunk.push_back(probes[i++]);
        bench.run(b, chunk, {}, true, calls, *traced);
        log.harvest(*b.spans, kRanks);
        calls += n;
      }
    }
    for (std::optional<CollStats>* s : {&untraced, &traced}) {
      if (!*s) continue;
      tally.attempted += (*s)->tally.attempted;
      tally.failed += (*s)->tally.failed;
    }
    if (!a.trace) {
      // One quantile copy of step_ms alive at a time: peak_rss_mb is read
      // after them.
      CollStats& u = *untraced;
      if (!large) {
        // algbw_gbs is the median over the timed runs (6600 calls each):
        // a preempted vCPU adds milliseconds to a few µs-long calls, which
        // would dominate one sum over the whole loop.
        const double step_p50 = quantile(u.step_ms, 0.50);
        const double step_p90 = quantile(u.step_ms, 0.90);
        set_end_to_end(m, setup.median(), u.lat_us.quantile(0.50),
                       u.lat_us.quantile(0.99), median(u.run_gbs),
                       step_p50, step_p90);
      } else {
        // Every figure over the distinct calls and rounds, each call timed
        // as the fastest of its repeats: a 40 ms call on a shared host
        // often holds milliseconds of preempted vCPU time.
        std::vector<double> lat, step;
        double bytes = 0, busy_us = 0;
        for (std::size_t k = 0; k < kLargeRounds; ++k) {
          const std::vector<double> best = fastest(reps[k]);
          if (best.empty()) continue;
          const auto ops = make_round(a.workload, a.seed, 1 + k, kRanks, scale);
          double round_us = 0;
          for (std::size_t i = 0; i < best.size(); ++i) {
            round_us += best[i];
            bytes += static_cast<double>(msg_bytes(ops[i], kRanks));
          }
          busy_us += round_us;
          lat.insert(lat.end(), best.begin(), best.end());
          step.push_back(round_us / 1e3);
        }
        set_end_to_end(m, setup.median(), quantile(lat, 0.50),
                       quantile(lat, 0.99), bytes / busy_us / 1e3,
                       quantile(step, 0.50), quantile(step, 0.90));
      }
    }
  }
  if (!a.trace) return;

  set_kind_self(m, traced->self_us);
  m.set("coll.rank_skew_us", median(traced->skew_us), "us");
  m.set("bench.span_overhead_ratio",
        traced->lat_us.quantile(0.5) / untraced->lat_us.quantile(0.5), "ratio");
  untraced.reset();
  traced.reset();
  ledger_common(m, a, pat, tally);
  ledger_amr(m, short_amr(a, tally));
}

// ---- app_amr ------------------------------------------------------------------------

std::size_t amr_max_len(bool smoke) { return smoke ? 65536 / 8 : 65536; }

/// Process-team construction plus the proxy's first call (a 24 B
/// all-reduce).
double amr_setup_once() {
  const double in[3] = {1, 2, 3};
  double out[3];
  const auto cfg = hermetic_config(kRanks);
  const std::int64_t t0 = now_ns();
  yhccl::rt::ProcessTeam team(cfg);
  team.run([&](RankCtx& ctx) {
    pin_to_cpu(ctx.rank());
    yhccl::coll::allreduce(ctx, in, out, 3, Datatype::f64, ReduceOp::sum);
  });
  return static_cast<double>(now_ns() - t0) / 1e9;
}

Counts amr_count(AmrBench& amr, yhccl::apps::miniamr::Config cfg,
                 double ref, Tally& tally) {
  AmrStats s;
  amr.run(cfg, false, false, ref, s);
  tally.attempted += s.tally.attempted;
  tally.failed += s.tally.failed;
  if (s.tally.failed != 0) return {};
  return read_counts(amr.team(), s.tally.attempted);
}

AmrStats short_amr(const Args& a, Tally& tally) {
  yhccl::rt::ProcessTeam team(hermetic_config(kRanks));
  AmrBench amr(team, amr_max_len(a.smoke), 0);
  auto cfg = amr_config(a.smoke);
  cfg.refine_metric_len = amr_metric_len(a.seed, 0, a.smoke);
  AmrStats ref_stats, s(true);
  const double ref = amr.run(cfg, true, false, 0, ref_stats);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    cfg.refine_metric_len = amr_metric_len(a.seed, i, a.smoke);
    amr.run(cfg, false, false, ref, s);
  }
  tally.attempted += s.tally.attempted;
  tally.failed += s.tally.failed;
  return s;
}

void run_amr(const Args& a, Metrics& m, Tally& tally, SpanLog& log) {
  SetupSampler setup(amr_setup_once, a.seconds, !a.trace);

  auto cfg = amr_config(a.smoke);
  AmrStats untraced;
  std::optional<AmrStats> traced;
  if (a.trace) traced.emplace(true);
  Patterns pat(a.seed, kRanks);
  {
    yhccl::rt::ProcessTeam team(hermetic_config(kRanks));
    AmrBench amr(team, amr_max_len(a.smoke), a.trace ? 8192 : 0);
    // Reference checksum from the benchmark's own all-reduce (untimed).
    cfg.refine_metric_len = amr_metric_len(a.seed, 0, a.smoke);
    AmrStats ref_stats;
    const double ref = amr.run(cfg, true, false, 0, ref_stats);
    const Counts c1 = amr_count(amr, cfg, ref, tally);
    const Counts c2 = amr_count(amr, cfg, ref, tally);
    check_counts(c1, c2, tally);
    if (a.trace) set_counts(m, c1);

    const double budget = a.trace ? a.seconds * 0.5 : a.seconds;
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(budget * 1e9);
    for (std::uint64_t idx = 1; now_ns() < deadline; ++idx) {
      setup.tick();
      // Traced and untraced runs alternate in blocks of four.  Each side
      // draws its own sequence of configurations, so each sees every band
      // of the refinement all-reduce.
      const bool tr = a.trace && (idx - 1) / 4 % 2 == 0;
      AmrStats& s = tr ? *traced : untraced;
      cfg.refine_metric_len = amr_metric_len(a.seed, 1 + s.next_config(), a.smoke);
      amr.run(cfg, false, tr, ref, s);
      if (tr) log.harvest(*amr.spans(), kRanks);
    }
    // A run too short for one full group reports its partial group.
    if (untraced.lat_p50.empty()) untraced.close_group();
    if (a.trace) {
      // Kinds the proxy does not issue: probe calls in the medium band.
      CollStats probes(4 * 20);
      probes.detail = true;
      CollBench bench(pat, 256u << 10, 256u << 10, 4, 4 * 20);
      CollBench::Bound b = bench.attach(team, 4 * 20 + 32);
      std::vector<std::vector<Op>> rounds;
      for (int i = 0; i < (a.smoke ? 4 : 20); ++i)
        rounds.push_back(make_probe_round(missing_kinds(a.workload),
                                          256u << 10, a.seed, 1 + i, kRanks));
      bench.run(b, rounds, {}, true, 0, probes);
      log.harvest(*b.spans, kRanks);
      tally.attempted += probes.tally.attempted;
      tally.failed += probes.tally.failed;
      probes.self_us[static_cast<int>(Kind::allreduce)] = traced->self_us;
      set_kind_self(m, probes.self_us);
    }
  }
  tally.attempted += untraced.tally.attempted;
  tally.failed += untraced.tally.failed;
  if (!a.trace) {
    const AmrStats& u = untraced;
    set_end_to_end(m, setup.median(), median(u.lat_p50), median(u.lat_p99),
                   median(u.gbs), median(u.step_p50), median(u.step_p90));
    return;
  }
  tally.attempted += traced->tally.attempted;
  tally.failed += traced->tally.failed;
  m.set("coll.rank_skew_us", median(traced->skew_us), "us");
  m.set("bench.span_overhead_ratio",
        median(traced->cycle_ms) / median(untraced.cycle_ms), "ratio");
  ledger_amr(m, *traced);
  ledger_common(m, a, pat, tally);
}

// ---- output ---------------------------------------------------------------------------

double raw_barrier_probe() {
  yhccl::rt::ThreadTeam team(hermetic_config(kRanks));
  RawBarrier* bar = make_raw_barrier(team);
  double us = 0;
  team.run([&](RankCtx& ctx) {
    pin_to_cpu(ctx.rank());
    const int n = 20000;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < n; ++i) bar->wait(ctx.rank(), ctx.nranks());
    if (ctx.rank() == 0) us = static_cast<double>(now_ns() - t0) / 1e3 / n;
  });
  return us;
}

void print_result(const Metrics& m, const Tally& t) {
  // A metric without samples (no call completed) makes the run incorrect.
  bool finite = true;
  for (const auto& item : m.items) finite = finite && std::isfinite(item.second.first);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              t.correct && t.failed == 0 && finite ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  const char* sep = "";
  for (const auto& [name, vu] : m.items) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), std::isfinite(vu.first) ? vu.first : -1.0,
                vu.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int main_impl(int argc, char** argv) {
  const Args a = parse(argc, argv);
  reject_library_env();
  // Keep the parent (which polls forked ranks) off the ranks' CPUs.
  pin_to_cpu(kRanks);
  const auto steal0 = read_steal();
  const double raw_us = raw_barrier_probe();
  Metrics m;
  Tally tally;
  SpanLog log;
  if (a.workload == Workload::app_amr)
    run_amr(a, m, tally, log);
  else
    run_coll(a, m, tally, log);
  if (a.trace)
    m.set("fail_ratio",
          static_cast<double>(tally.failed) /
              static_cast<double>(std::max<std::uint64_t>(1, tally.attempted)),
          "ratio");
  const auto steal1 = read_steal();
  const double steal =
      steal1.second > steal0.second
          ? static_cast<double>(steal1.first - steal0.first) /
                static_cast<double>(steal1.second - steal0.second)
          : 0.0;
  std::string spans_file;
  if (a.trace && !a.out_dir.empty()) {
    spans_file = a.out_dir + "/spans-" + a.workload_name + "-" +
                 std::to_string(a.seed) + ".csv";
    if (!log.write_csv(spans_file)) spans_file = "(write failed)";
  }
  // Host state: the ISA tier the kernels ran, the steal share of the run
  // and the raw barrier floor flag a run landing in the slow mode.
  std::printf("{\"run_info\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"isa\": \"%s\", \"steal_share\": %.4f, "
              "\"raw_barrier_us\": %.3f, \"flagged_slow\": %s, "
              "\"spans\": \"%s\", \"span_rows\": %zu}}\n",
              a.workload_name.c_str(), static_cast<unsigned long long>(a.seed),
              yhccl::copy::isa_name(yhccl::copy::active_isa()), steal, raw_us,
              steal > 0.05 || raw_us > 1.5 ? "true" : "false",
              spans_file.c_str(), log.rows.size());
  print_result(m, tally);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
