// Shared pieces of the repository benchmark (see README.md): clocks,
// statistics, rank pinning, the benchmark's own raw barrier, seeded
// operand patterns with their scalar reference, the op generator, and the
// span recorder used by the traced run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "yhccl/coll/coll.hpp"
#include "yhccl/runtime/team.hpp"

namespace perfbench {

using yhccl::Datatype;
using yhccl::ReduceOp;
using yhccl::rt::RankCtx;
using yhccl::rt::Team;

inline constexpr int kRanks = 2;  // nproc / 2 on the 4-vCPU reference host

// ---- time and statistics ----------------------------------------------------

std::int64_t now_ns() noexcept;
/// q-quantile (0..1) by nearest rank on a copy; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
/// Element-wise minimum over the repeats of one deterministic sequence of
/// timings (the shortest repeat's length): each entry timed as the fastest
/// of its repeats.  A host that preempts a vCPU for milliseconds stretches
/// some repeats; the fastest one leaves that out.
std::vector<double> fastest(const std::vector<std::vector<double>>& repeats);

/// A sample of at most `capacity` values whose memory is touched up front,
/// so the run's peak RSS does not depend on how many calls fit in it.  When
/// full it keeps every other value and halves its sampling rate.
class Samples {
 public:
  explicit Samples(std::size_t capacity);
  void push(double x);
  /// q-quantile by nearest rank (reorders the stored values).
  double quantile(double q);

 private:
  std::vector<float> v_;
  std::size_t n_ = 0, stride_ = 1, skip_ = 0;
};

// ---- host state ---------------------------------------------------------------

/// Pin the calling thread (or forked process) to CPU `cpu`; false when the
/// CPU is outside the allowed set.
bool pin_to_cpu(int cpu) noexcept;
/// Cumulative (steal, total) jiffies from the "cpu" line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> read_steal() noexcept;
/// Peak RSS of this process plus its largest reaped child, in MB.
double peak_rss_mb() noexcept;
/// Team configuration with every mode set explicitly (no env deferral).
yhccl::rt::TeamConfig hermetic_config(int nranks);

// ---- raw sense-reversing barrier (the runtime layer's floor) ---------------

/// A plain std::atomic barrier owned by the benchmark.  Lives in shared
/// memory so forked ranks use it too; the per-rank sense is stored there as
/// well so it survives across Team::run calls of a process team.
struct alignas(64) RawBarrier {
  std::atomic<std::uint32_t> arrived{0};
  alignas(64) std::atomic<std::uint32_t> sense{0};
  alignas(64) std::uint32_t local_sense[yhccl::rt::kMaxRanks * 16] = {};
  void wait(int rank, int nranks) noexcept;
};
RawBarrier* make_raw_barrier(Team& team);

// ---- collective ops and their operands -------------------------------------

enum class Kind : int { allreduce, reduce, reduce_scatter, broadcast, allgather };
inline constexpr int kKinds = 5;
const char* kind_name(Kind k) noexcept;

/// One generated call.  `count` follows the library API: elements per rank
/// buffer, except reduce_scatter (elements each rank receives) and
/// allgather (elements each rank contributes).  `phase` is the element
/// offset into the periodic operand pattern (64-byte aligned).
struct Op {
  Kind kind = Kind::allreduce;
  Datatype d = Datatype::f64;
  ReduceOp op = ReduceOp::sum;
  int root = 0;
  std::size_t count = 0;
  std::size_t phase = 0;
};

std::size_t send_elems(const Op& o, int p) noexcept;
std::size_t out_elems(const Op& o, int p) noexcept;
/// Message bytes of a call: the full vector (allreduce/reduce/broadcast),
/// the total input (reduce_scatter) or the total output (allgather).
std::size_t msg_bytes(const Op& o, int p) noexcept;

/// Period of every operand pattern, in elements (prime, so no power-of-two
/// slice misplacement can alias onto itself).
inline constexpr std::size_t kPeriod = 1021;

/// Seeded operand patterns and their scalar references.  Rank q's element i
/// of dtype d is the small integer v(q, i mod kPeriod) in [-30, 30], so sums
/// and maxima are exact in every dtype and every fold order.  Tables hold
/// two periods so any window of kPeriod elements is contiguous.
class Patterns {
 public:
  Patterns(std::uint64_t seed, int nranks);
  const std::byte* rank_table(int q, Datatype d) const;
  const std::byte* reduced_table(ReduceOp op, Datatype d) const;
  /// Fill `elems` elements of rank q's pattern (starting at element 0).
  void fill(std::byte* dst, std::size_t elems, int q, Datatype d) const;

 private:
  std::map<std::pair<int, int>, std::vector<std::byte>> rank_;
  std::map<std::pair<int, int>, std::vector<std::byte>> reduced_;
};

/// Compare `n` elements against the periodic table window starting at
/// element `start` (mod kPeriod); true when every byte matches.
bool check_periodic(const std::byte* out, std::size_t n, std::size_t dsize,
                    const std::byte* table2, std::size_t start) noexcept;

// ---- workloads ---------------------------------------------------------------

enum class Workload { small_mix, large_mix, app_amr };

/// Distinct rounds of large_mix; round `idx` is round idx % kLargeRounds.
/// A 30 s run makes about 100 rounds, so each of the 120 distinct calls is
/// timed about seven times.
inline constexpr std::uint64_t kLargeRounds = 15;

/// One stratified round of the seeded op sequence (shuffled): small_mix has
/// each of allreduce/reduce/broadcast once per size octave 8 B..16 KB,
/// large_mix each of allreduce/reduce_scatter/broadcast/allgather once in
/// each of the bands [16, 64) MB and [64, 128) MB, all in one dtype.
/// `scale` shrinks the large sizes (smoke mode).
std::vector<Op> make_round(Workload w, std::uint64_t seed, std::uint64_t idx,
                           int p, double scale);
/// One call of each of `kinds` at exactly `bytes` (seeded dtype, op, root):
/// gives the traced run spans for kinds its workload does not issue.
std::vector<Op> make_probe_round(const std::vector<Kind>& kinds,
                                 std::size_t bytes, std::uint64_t seed,
                                 std::uint64_t idx, int p);

// ---- spans -------------------------------------------------------------------

/// One recorded span: name id, start/end (CLOCK_MONOTONIC ns), the index of
/// the parent span in the same rank's buffer (-1 for none) and the call
/// index shared by every rank's span of one call.
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t call = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Per-rank span arrays in the team's shared heap, so forked ranks record
/// into memory the parent reads after the run.
struct SpanBuf {
  std::size_t cap = 0;
  Span* spans[yhccl::rt::kMaxRanks] = {};
  std::size_t* used = nullptr;  ///< per rank, 64-byte strided
  std::int32_t push(int rank, std::uint32_t name, std::int32_t parent,
                    std::uint64_t call, std::int64_t t0,
                    std::int64_t t1) noexcept;
  std::size_t& count(int rank) noexcept { return used[rank * 8]; }
};
SpanBuf* make_span_buf(Team& team, std::size_t cap_per_rank);

/// Span names: the collective kinds use their Kind value.
inline constexpr std::uint32_t kSpanRound = 16;
inline constexpr std::uint32_t kSpanAmrRun = 17;
inline constexpr std::uint32_t kSpanCheck = 18;
const char* span_name(std::uint32_t id) noexcept;

/// Spans harvested by the parent, written out when the run ends.
struct SpanLog {
  struct Row {
    int rank;
    Span s;
  };
  std::vector<Row> rows;
  std::size_t limit = 100000;
  void harvest(SpanBuf& buf, int nranks);
  bool write_csv(const std::string& path) const;
};

// ---- results -----------------------------------------------------------------

/// Named metrics of one invocation, in the order set, printed as the final
/// JSON line.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const std::string& unit);
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;  ///< false on any non-reproducible exact count
};

}  // namespace perfbench
