// Unified benchmark runner for the paper-reproduction campaign.
//
// Every bench binary drives its (collective × size × algorithm) cells
// through the same measurement discipline:
//  * warm-up iterations that never enter the sample;
//  * repetition until the median's ~95% confidence interval shrinks below
//    a target relative half-width (or the rep/budget caps hit) — the
//    repeat-until-converged loop the paper's §5 campaign uses;
//  * per-rank timing aligned on an in-run barrier, so thread/process spawn
//    skew is excluded and the reported time is genuinely the slowest rank's
//    collective time;
//  * median + MAD outlier rejection (stats.hpp);
//  * one *untimed* run capturing the deterministic counters (DAV bytes,
//    per-ISA-tier kernel dispatches, barrier/flag sync ops) with no
//    harness-inserted synchronization, so the totals equal the
//    model::impl:: operation-count simulators exactly.
//
// Results accumulate in a Session and serialize to a versioned JSON report
// ("yhccl-bench/1") that bench/bench_compare.cpp merges, validates and
// diffs.  docs/benchmarking.md documents the schema and the env knobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "yhccl/bench/json.hpp"
#include "yhccl/bench/stats.hpp"
#include "yhccl/copy/dav.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/runtime/sync_counts.hpp"
#include "yhccl/runtime/team.hpp"

namespace yhccl::bench {

/// Schema identifier stamped into every report.
inline constexpr const char* kSchemaVersion = "yhccl-bench/1";

/// Repetition policy; every field has an env override (docs/benchmarking.md).
struct RunPolicy {
  int warmup = 1;             ///< $YHCCL_BENCH_WARMUP  — discarded iterations
  int min_reps = 5;           ///< $YHCCL_BENCH_MIN_REPS
  int max_reps = 40;          ///< $YHCCL_BENCH_REPS    — hard repetition cap
  double target_rel_ci = 0.05;  ///< $YHCCL_BENCH_CI   — stop when CI tighter
  double budget_s = 0.35;     ///< $YHCCL_BENCH_BUDGET — per-cell time budget
  double outlier_k = 5.0;     ///< MAD multiplier for outlier rejection

  static RunPolicy from_env();
  Json to_json() const;
};

/// Host / topology metadata captured once per report.
struct MachineInfo {
  std::string isa;          ///< dispatched kernel tier (active_isa())
  std::string detected_isa; ///< best tier the CPU supports
  int hw_threads = 0;
  std::uint64_t llc_bytes = 0;
  std::uint64_t l2_per_core = 0;
  bool llc_inclusive = false;
  bool llc_counts = true;  ///< the LLC probe's verdict (cache_model.hpp)
  std::string cache;  ///< CacheConfig::describe()

  static MachineInfo detect();
  Json to_json() const;
};

/// The deterministic counters of one team run, summed over all ranks —
/// exactly what the model::impl::*_ops simulators predict.
struct Counters {
  copy::Dav dav;
  copy::KernelCounts kernels;
  rt::SyncCounts sync;

  bool operator==(const Counters&) const noexcept = default;
  Json to_json() const;
  static Counters from_json(const Json& j);
};

/// One measured cell: a (bench, collective, algorithm, shape, size) point.
struct Series {
  std::string bench;       ///< binary name, e.g. "fig11_allreduce"
  std::string collective;  ///< "allreduce", "reduce_scatter", ...
  std::string algorithm;   ///< arm name, e.g. "yhccl-ma"
  int ranks = 0;
  int sockets = 0;
  std::size_t bytes = 0;   ///< total message size handed to the arm
  Summary time;            ///< slowest-rank seconds per iteration
  double dab = 0;          ///< achieved DAV bandwidth, bytes/s (median)
  Counters counters;       ///< deterministic per-node operation counts
  std::string isa;         ///< dominant dispatched tier for this cell

  /// Identity of this cell inside a report (comparator join key).
  std::string key() const;
  Json to_json() const;
  static Series from_json(const Json& j);
};

/// Per-rank SPMD body of one measured iteration.
using RankFn = std::function<void(rt::RankCtx&)>;

/// Parent-side hook run between iterations (buffer re-touch, §5.5).
using IterHook = std::function<void(unsigned iter)>;

/// Timed repetition loop.  Each iteration barrier-aligns the ranks inside
/// the run, then times `fn` per rank into a shared slot; the sample is the
/// slowest rank's time.  Stops once `min_reps` samples exist and either the
/// CI target is met or the budget/rep cap hits.
Summary timed_run(rt::Team& team, const RankFn& fn, const RunPolicy& policy,
                  const IterHook& between_iters = {});

/// One untimed run with no harness-inserted synchronization; returns the
/// team-total counters (equal to the matching model::impl::*_ops result).
Counters measure_counters(rt::Team& team, const RankFn& fn);

/// Full cell measurement: counters via measure_counters, timing via
/// timed_run, achieved DAB from median time.  `meta` supplies the identity
/// fields (bench/collective/algorithm/bytes); shape comes from the team.
Series measure_series(rt::Team& team, Series meta, const RankFn& fn,
                      const RunPolicy& policy,
                      const IterHook& between_iters = {});

/// Accumulates Series and writes one versioned JSON report.
class Session {
 public:
  explicit Session(std::string name);
  Session(std::string name, RunPolicy policy);

  const std::string& name() const noexcept { return name_; }
  const RunPolicy& policy() const noexcept { return policy_; }
  void add(Series s) { series_.push_back(std::move(s)); }
  const std::vector<Series>& series() const noexcept { return series_; }

  Json to_json() const;

  /// When $YHCCL_BENCH_JSON names a directory, writes
  /// <dir>/BENCH_<name>.json and returns the path; otherwise returns "".
  /// Prints a one-line notice on write, a warning on failure.
  std::string write() const;

 private:
  std::string name_;
  RunPolicy policy_;
  MachineInfo machine_;
  std::vector<Series> series_;
};

// ---- file helpers ------------------------------------------------------------
Json load_json_file(const std::string& path, std::string* err = nullptr);
bool write_json_file(const std::string& path, const Json& j,
                     std::string* err = nullptr);

}  // namespace yhccl::bench
