#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <new>
#include <optional>

#include "perfbench.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  auto k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::vector<double> fastest(const std::vector<std::vector<double>>& repeats) {
  if (repeats.empty()) return {};
  std::vector<double> best = repeats[0];
  for (const auto& r : repeats) {
    best.resize(std::min(best.size(), r.size()));
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], r[i]);
  }
  return best;
}

Samples::Samples(std::size_t capacity) : v_(std::max<std::size_t>(capacity, 2)) {}

void Samples::push(double x) {
  if (++skip_ < stride_) return;
  skip_ = 0;
  if (n_ == v_.size()) {  // full: keep every other sample, halve the rate
    for (std::size_t i = 0; i < n_ / 2; ++i) v_[i] = v_[2 * i + 1];
    n_ /= 2;
    stride_ *= 2;
  }
  v_[n_++] = static_cast<float>(x);
}

double Samples::quantile(double q) {
  if (n_ == 0) return 0.0;
  const auto k = std::min(n_ - 1, static_cast<std::size_t>(q * static_cast<double>(n_)));
  std::nth_element(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(k),
                   v_.begin() + static_cast<std::ptrdiff_t>(n_));
  return v_[k];
}

bool pin_to_cpu(int cpu) noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

std::pair<std::uint64_t, std::uint64_t> read_steal() noexcept {
  std::ifstream f("/proc/stat");
  std::string tag;
  f >> tag;
  if (tag != "cpu") return {0, 0};
  std::uint64_t total = 0, steal = 0;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t x = 0;
    if (!(f >> x)) break;
    total += x;
    if (i == 7) steal = x;
  }
  return {steal, total};
}

double peak_rss_mb() noexcept {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

yhccl::rt::TeamConfig hermetic_config(int nranks) {
  yhccl::rt::TeamConfig cfg;
  cfg.nranks = nranks;
  cfg.nsockets = 1;
  cfg.hb_check = yhccl::rt::HbMode::off;
  cfg.trace = yhccl::trace::Mode::off;
  cfg.metrics = yhccl::metrics::Mode::off;
  cfg.tune = yhccl::rt::TuneMode::prior;
  cfg.resilience.max_retries = 0;
  cfg.sync_timeout = 30.0;  // a hang becomes a counted failure
  return cfg;
}

// ---- raw barrier ---------------------------------------------------------------

void RawBarrier::wait(int rank, int nranks) noexcept {
  std::uint32_t& mine = local_sense[rank * 16];
  mine ^= 1u;
  if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      static_cast<std::uint32_t>(nranks)) {
    arrived.store(0, std::memory_order_relaxed);
    sense.store(mine, std::memory_order_release);
    return;
  }
  while (sense.load(std::memory_order_acquire) != mine) {
#if defined(__x86_64__)
    _mm_pause();
#endif
  }
}

RawBarrier* make_raw_barrier(Team& team) {
  return new (team.shared_alloc(sizeof(RawBarrier), 64)) RawBarrier();
}

// ---- ops ---------------------------------------------------------------------

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::allreduce: return "allreduce";
    case Kind::reduce: return "reduce";
    case Kind::reduce_scatter: return "reduce_scatter";
    case Kind::broadcast: return "broadcast";
    case Kind::allgather: return "allgather";
  }
  return "?";
}

std::size_t send_elems(const Op& o, int p) noexcept {
  return o.kind == Kind::reduce_scatter ? o.count * static_cast<std::size_t>(p)
                                        : o.count;
}

std::size_t out_elems(const Op& o, int p) noexcept {
  return o.kind == Kind::allgather ? o.count * static_cast<std::size_t>(p)
                                   : o.count;
}

std::size_t msg_bytes(const Op& o, int p) noexcept {
  return std::max(send_elems(o, p), out_elems(o, p)) *
         yhccl::dtype_size(o.d);
}

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// splitmix64 stream; the same seed gives the same draws on every platform.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() noexcept { return mix64(s++); }
  std::size_t below(std::size_t n) noexcept {
    return static_cast<std::size_t>(next() % n);
  }
};

template <class T>
void store_as(std::byte* dst, std::size_t i, long v) {
  const T t = static_cast<T>(v);
  std::memcpy(dst + i * sizeof(T), &t, sizeof(T));
}

void store_value(std::byte* dst, std::size_t i, Datatype d, long v) {
  switch (d) {
    case Datatype::i32: store_as<std::int32_t>(dst, i, v); break;
    case Datatype::f32: store_as<float>(dst, i, v); break;
    case Datatype::f64: store_as<double>(dst, i, v); break;
    default: break;
  }
}

constexpr Datatype kDtypes[] = {Datatype::i32, Datatype::f32, Datatype::f64};
constexpr ReduceOp kOps[] = {ReduceOp::sum, ReduceOp::max};

}  // namespace

Patterns::Patterns(std::uint64_t seed, int nranks) {
  std::vector<std::vector<long>> v(static_cast<std::size_t>(nranks),
                                   std::vector<long>(kPeriod));
  for (int q = 0; q < nranks; ++q)
    for (std::size_t k = 0; k < kPeriod; ++k)
      v[static_cast<std::size_t>(q)][k] =
          static_cast<long>(mix64(seed * 0x100000001b3ull ^
                                  (static_cast<std::uint64_t>(q) << 40) ^ k) %
                            61) -
          30;
  for (Datatype d : kDtypes) {
    const std::size_t ds = yhccl::dtype_size(d);
    for (int q = 0; q < nranks; ++q) {
      auto& t = rank_[{q, static_cast<int>(d)}];
      t.resize(2 * kPeriod * ds);
      for (std::size_t i = 0; i < 2 * kPeriod; ++i)
        store_value(t.data(), i, d, v[static_cast<std::size_t>(q)][i % kPeriod]);
    }
    for (ReduceOp op : kOps) {
      auto& t = reduced_[{static_cast<int>(op), static_cast<int>(d)}];
      t.resize(2 * kPeriod * ds);
      for (std::size_t i = 0; i < 2 * kPeriod; ++i) {
        long acc = v[0][i % kPeriod];
        for (int q = 1; q < nranks; ++q) {
          const long x = v[static_cast<std::size_t>(q)][i % kPeriod];
          acc = op == ReduceOp::sum ? acc + x : std::max(acc, x);
        }
        store_value(t.data(), i, d, acc);
      }
    }
  }
}

const std::byte* Patterns::rank_table(int q, Datatype d) const {
  return rank_.at({q, static_cast<int>(d)}).data();
}

const std::byte* Patterns::reduced_table(ReduceOp op, Datatype d) const {
  return reduced_.at({static_cast<int>(op), static_cast<int>(d)}).data();
}

void Patterns::fill(std::byte* dst, std::size_t elems, int q,
                    Datatype d) const {
  const std::size_t ds = yhccl::dtype_size(d);
  const std::size_t total = elems * ds;
  std::size_t done = std::min(total, kPeriod * ds);
  std::memcpy(dst, rank_table(q, d), done);
  while (done < total) {  // doubling copy of whole periods
    const std::size_t n = std::min(done, total - done);
    std::memcpy(dst + done, dst, n);
    done += n;
  }
}

bool check_periodic(const std::byte* out, std::size_t n, std::size_t dsize,
                    const std::byte* table2, std::size_t start) noexcept {
  const std::byte* want = table2 + (start % kPeriod) * dsize;
  for (std::size_t k = 0; k < n; k += kPeriod) {
    const std::size_t m = std::min(kPeriod, n - k);
    if (std::memcmp(out + k * dsize, want, m * dsize) != 0) return false;
  }
  return true;
}

namespace {

/// One call of kind `k` with `bytes` rounded down to a multiple of `unit`
/// and seeded dtype, op, root and operand phase.
Op draw_op(Rng& rng, Kind k, std::size_t bytes, std::size_t unit, int p,
           std::optional<Datatype> dtype = std::nullopt) {
  Op o;
  o.kind = k;
  o.d = kDtypes[rng.below(3)];
  if (dtype) o.d = *dtype;
  o.op = kOps[rng.below(2)];
  o.root = static_cast<int>(rng.below(static_cast<std::size_t>(p)));
  const std::size_t ds = yhccl::dtype_size(o.d);
  bytes = std::max(unit, bytes / unit * unit);
  const std::size_t per = (k == Kind::reduce_scatter || k == Kind::allgather)
                              ? ds * static_cast<std::size_t>(p)
                              : ds;
  o.count = std::max<std::size_t>(1, bytes / per);
  const std::size_t align = 64 / ds;
  o.phase = rng.below(kPeriod) / align * align;
  return o;
}

void shuffle(std::vector<Op>& ops, Rng& rng) {
  for (std::size_t i = ops.size(); i > 1; --i)
    std::swap(ops[i - 1], ops[rng.below(i)]);
}

}  // namespace

std::vector<Op> make_round(Workload w, std::uint64_t seed, std::uint64_t idx,
                           int p, double scale) {
  Rng rng{mix64(seed) ^ mix64(idx + 0x51ed27)};
  std::vector<Op> ops;
  if (w == Workload::small_mix) {
    for (Kind k : {Kind::allreduce, Kind::reduce, Kind::broadcast})
      for (int oct = 3; oct <= 13; ++oct) {
        const std::size_t lo = std::size_t{1} << oct;
        ops.push_back(draw_op(rng, k, lo + rng.below(lo), 8, p));
      }
  } else {
    // Few calls fit in a run, and the slowest of them sets p99, so the
    // kLargeRounds rounds hold one fixed, balanced set of calls: per
    // (kind, band) one call in each of kLargeRounds equal size strata,
    // dtypes by round, sum and max alternating.  The seed draws roots,
    // operand offsets and call order (and the operands themselves).
    const auto mb = [scale](double x) { return x * scale * (1 << 20); };
    const std::size_t unit = 64 * static_cast<std::size_t>(p);
    const double bands[2][2] = {{mb(16), mb(64)}, {mb(64), mb(128)}};
    const std::uint64_t j = idx % kLargeRounds;
    // One dtype per round: refilling a send buffer is untimed but slow.
    const Datatype d = kDtypes[j % 3];
    std::uint64_t stream = 0;
    for (Kind k : {Kind::allreduce, Kind::reduce_scatter, Kind::broadcast,
                   Kind::allgather})
      for (const auto& band : bands) {
        // 4 is coprime with kLargeRounds: each stream visits every stratum.
        const double t =
            (static_cast<double>((4 * j + stream) % kLargeRounds) + 0.5) /
            kLargeRounds;
        Op o = draw_op(
            rng, k,
            static_cast<std::size_t>(band[0] + t * (band[1] - band[0])), unit,
            p, d);
        o.op = kOps[(j + stream++) % 2];
        ops.push_back(o);
      }
  }
  shuffle(ops, rng);
  return ops;
}

std::vector<Op> make_probe_round(const std::vector<Kind>& kinds,
                                 std::size_t bytes, std::uint64_t seed,
                                 std::uint64_t idx, int p) {
  Rng rng{mix64(seed ^ 0x9b0be) ^ mix64(idx)};
  std::vector<Op> ops;
  for (Kind k : kinds)
    ops.push_back(draw_op(rng, k, bytes, 8, p));
  return ops;
}

// ---- spans -------------------------------------------------------------------

std::int32_t SpanBuf::push(int rank, std::uint32_t name, std::int32_t parent,
                           std::uint64_t call, std::int64_t t0,
                           std::int64_t t1) noexcept {
  std::size_t& n = count(rank);
  if (n >= cap) return -1;
  spans[rank][n] = Span{name, parent, call, t0, t1};
  return static_cast<std::int32_t>(n++);
}

SpanBuf* make_span_buf(Team& team, std::size_t cap_per_rank) {
  auto* b = new (team.shared_alloc(sizeof(SpanBuf), 64)) SpanBuf();
  b->cap = cap_per_rank;
  b->used = new (team.shared_alloc(
      sizeof(std::size_t) * 8 * static_cast<std::size_t>(team.nranks()), 64))
      std::size_t[8 * static_cast<std::size_t>(team.nranks())]();
  for (int r = 0; r < team.nranks(); ++r)
    b->spans[r] = new (team.shared_alloc(sizeof(Span) * cap_per_rank, 64))
        Span[cap_per_rank];
  return b;
}

const char* span_name(std::uint32_t id) noexcept {
  if (id < kKinds) return kind_name(static_cast<Kind>(id));
  if (id == kSpanRound) return "round";
  if (id == kSpanAmrRun) return "amr.run";
  if (id == kSpanCheck) return "check";
  return "?";
}

void SpanLog::harvest(SpanBuf& buf, int nranks) {
  for (int r = 0; r < nranks; ++r) {
    const std::size_t n = buf.count(r);
    for (std::size_t i = 0; i < n && rows.size() < limit; ++i)
      rows.push_back({r, buf.spans[r][i]});
    buf.count(r) = 0;
  }
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "rank,name,parent,call,start_ns,end_ns\n");
  for (const auto& r : rows)
    std::fprintf(f, "%d,%s,%d,%llu,%lld,%lld\n", r.rank, span_name(r.s.name),
                 r.s.parent, static_cast<unsigned long long>(r.s.call),
                 static_cast<long long>(r.s.t0),
                 static_cast<long long>(r.s.t1));
  return std::fclose(f) == 0;
}

// ---- metrics -------------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  items.push_back({name, {value, unit}});
}

}  // namespace perfbench
