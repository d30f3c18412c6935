#include "coll_bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

namespace perfbench {

namespace {

constexpr int kPoison = 0xA5;

int dtype_index(Datatype d) noexcept {
  return d == Datatype::i32 ? 0 : d == Datatype::f32 ? 1 : 2;
}

constexpr Datatype kIndexDtype[] = {Datatype::i32, Datatype::f32,
                                    Datatype::f64};

}  // namespace

void issue(RankCtx& ctx, const Op& o, const void* send, void* out,
           const yhccl::coll::CollOpts& opts) {
  namespace coll = yhccl::coll;
  switch (o.kind) {
    case Kind::allreduce:
      coll::allreduce(ctx, send, out, o.count, o.d, o.op, opts);
      break;
    case Kind::reduce:
      coll::reduce(ctx, send, ctx.rank() == o.root ? out : nullptr, o.count,
                   o.d, o.op, o.root, opts);
      break;
    case Kind::reduce_scatter:
      coll::reduce_scatter(ctx, send, out, o.count, o.d, o.op, opts);
      break;
    case Kind::broadcast:
      coll::broadcast(ctx, out, o.count, o.d, o.root, opts);
      break;
    case Kind::allgather:
      coll::allgather(ctx, send, out, o.count, o.d, opts);
      break;
  }
}

CollBench::CollBench(const Patterns& pat, std::size_t max_send,
                     std::size_t max_out, std::size_t round_len,
                     std::size_t max_calls)
    : pat_(pat),
      send_cap_(yhccl::round_up(max_send + kPeriod * 8 + 64, 4096)),
      slot_(yhccl::round_up(max_out, 64)),
      max_calls_(max_calls),
      per_dtype_(3 * send_cap_ <= (8u << 20)),
      whole_round_(per_dtype_ && slot_ * round_len <= (4u << 20)),
      bufs_(kRanks) {
  auto alloc = [this](std::size_t bytes) {
    void* p = std::aligned_alloc(4096, yhccl::round_up(bytes, 4096));
    if (p == nullptr) throw std::bad_alloc();
    owned_.push_back(p);
    return static_cast<std::byte*>(p);
  };
  const std::size_t out_bytes = whole_round_ ? slot_ * round_len : slot_;
  for (int r = 0; r < kRanks; ++r) {
    auto& b = bufs_[static_cast<std::size_t>(r)];
    for (int i = 0; i < (per_dtype_ ? 3 : 1); ++i) {
      b.send[i] = alloc(send_cap_);
      if (per_dtype_)
        pat_.fill(b.send[i], send_cap_ / yhccl::dtype_size(kIndexDtype[i]), r,
                  kIndexDtype[i]);
    }
    b.out = alloc(out_bytes);
  }
}

CollBench::~CollBench() {
  for (void* p : owned_) std::free(p);
}

CollBench::Bound CollBench::attach(Team& team, std::size_t span_cap) {
  Bound b;
  b.team = &team;
  b.barrier = make_raw_barrier(team);
  for (int r = 0; r < team.nranks(); ++r) {
    b.t0[r] = reinterpret_cast<std::int64_t*>(
        team.shared_alloc(max_calls_ * sizeof(std::int64_t)));
    b.t1[r] = reinterpret_cast<std::int64_t*>(
        team.shared_alloc(max_calls_ * sizeof(std::int64_t)));
    b.fail[r] = reinterpret_cast<std::uint8_t*>(team.shared_alloc(max_calls_));
  }
  if (span_cap > 0) b.spans = make_span_buf(team, span_cap);
  return b;
}

std::byte* CollBench::send_for(int rank, Datatype d) {
  auto& b = bufs_[static_cast<std::size_t>(rank)];
  if (per_dtype_) return b.send[dtype_index(d)];
  // One shared buffer: refill with this dtype's pattern when it changes
  // (the whole capacity, so any later call of the dtype fits).
  if (b.filled != dtype_index(d)) {
    pat_.fill(b.send[0], send_cap_ / yhccl::dtype_size(d), rank, d);
    b.filled = dtype_index(d);
  }
  return b.send[0];
}

void CollBench::prep(int rank, const Op& o, std::byte* out) {
  const std::size_t ds = yhccl::dtype_size(o.d);
  const std::byte* send = send_for(rank, o.d) + o.phase * ds;
  if (o.kind == Kind::broadcast && rank == o.root)
    std::memcpy(out, send, o.count * ds);
  else if (o.kind != Kind::reduce || rank == o.root)
    std::memset(out, kPoison, out_elems(o, kRanks) * ds);
}

bool CollBench::check(int rank, const Op& o, const std::byte* out) const {
  const std::size_t ds = yhccl::dtype_size(o.d);
  switch (o.kind) {
    case Kind::allreduce:
      return check_periodic(out, o.count, ds, pat_.reduced_table(o.op, o.d),
                            o.phase);
    case Kind::reduce:
      return rank != o.root ||
             check_periodic(out, o.count, ds, pat_.reduced_table(o.op, o.d),
                            o.phase);
    case Kind::reduce_scatter:
      return check_periodic(out, o.count, ds, pat_.reduced_table(o.op, o.d),
                            o.phase + static_cast<std::size_t>(rank) * o.count);
    case Kind::broadcast:
      return check_periodic(out, o.count, ds, pat_.rank_table(o.root, o.d),
                            o.phase);
    case Kind::allgather:
      for (int q = 0; q < kRanks; ++q)
        if (!check_periodic(out + static_cast<std::size_t>(q) * o.count * ds,
                            o.count, ds, pat_.rank_table(q, o.d), o.phase))
          return false;
      return true;
  }
  return false;
}

void CollBench::rank_body(RankCtx& ctx, Bound& b,
                          const std::vector<std::vector<Op>>& rounds,
                          const yhccl::coll::CollOpts& opts, bool traced,
                          std::uint64_t call_base) {
  const int r = ctx.rank();
  const int p = ctx.nranks();
  pin_to_cpu(r);
  auto& rb = bufs_[static_cast<std::size_t>(r)];
  std::size_t c = 0;
  for (const auto& ops : rounds) {
    const std::int32_t rs =
        traced ? b.spans->push(r, kSpanRound, -1, call_base + c, now_ns(), 0)
               : -1;
    const std::size_t batch = whole_round_ ? ops.size() : 1;
    for (std::size_t i0 = 0; i0 < ops.size(); i0 += batch) {
      const std::size_t i1 = std::min(ops.size(), i0 + batch);
      for (std::size_t i = i0; i < i1; ++i)
        prep(r, ops[i], rb.out + (i - i0) * slot_);
      b.barrier->wait(r, p);
      for (std::size_t i = i0; i < i1; ++i) {
        const Op& o = ops[i];
        const std::byte* send =
            rb.send[per_dtype_ ? dtype_index(o.d) : 0] +
            o.phase * yhccl::dtype_size(o.d);
        const std::int64_t t0 = now_ns();
        issue(ctx, o, send, rb.out + (i - i0) * slot_, opts);
        const std::int64_t t1 = now_ns();
        const std::size_t k = c + i - i0;
        b.t0[r][k] = t0;
        b.t1[r][k] = t1;
        if (traced)
          b.spans->push(r, static_cast<std::uint32_t>(o.kind), rs,
                        call_base + k, t0, t1);
      }
      for (std::size_t i = i0; i < i1; ++i)
        b.fail[r][c + i - i0] =
            check(r, ops[i], rb.out + (i - i0) * slot_) ? 0 : 1;
      c += i1 - i0;
    }
    if (rs >= 0) b.spans->spans[r][rs].t1 = now_ns();
  }
}

bool CollBench::run(Bound& b, const std::vector<std::vector<Op>>& rounds,
                    const yhccl::coll::CollOpts& opts, bool traced,
                    std::uint64_t call_base, CollStats& out) {
  std::size_t n = 0;
  for (const auto& ops : rounds) n += ops.size();
  if (n > max_calls_) throw std::length_error("run exceeds record capacity");
  Team& team = *b.team;
  const int p = team.nranks();
  out.run_lat_us.clear();
  try {
    team.run([&](RankCtx& ctx) {
      rank_body(ctx, b, rounds, opts, traced, call_base);
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    out.tally.attempted += n;
    out.tally.failed += n;
    team.recover();
    return false;
  }
  std::size_t c = 0;
  double bytes = 0, busy_ns = 0;
  for (const auto& ops : rounds) {
    double step_ns = 0;
    for (const Op& o : ops) {
      std::int64_t lat = 0, first_exit = b.t1[0][c], last_exit = b.t1[0][c];
      bool failed = false;
      for (int r = 0; r < p; ++r) {
        const std::int64_t d = b.t1[r][c] - b.t0[r][c];
        lat = std::max(lat, d);
        first_exit = std::min(first_exit, b.t1[r][c]);
        last_exit = std::max(last_exit, b.t1[r][c]);
        failed = failed || b.fail[r][c] != 0;
        if (out.detail)
          out.self_us[static_cast<int>(o.kind)].push_back(
              static_cast<double>(d) / 1e3);
      }
      ++out.tally.attempted;
      if (failed) ++out.tally.failed;
      out.lat_us.push(static_cast<double>(lat) / 1e3);
      out.run_lat_us.push_back(static_cast<double>(lat) / 1e3);
      if (out.detail)
        out.skew_us.push_back(static_cast<double>(last_exit - first_exit) /
                              1e3);
      bytes += static_cast<double>(msg_bytes(o, p));
      busy_ns += static_cast<double>(lat);
      step_ns += static_cast<double>(lat);
      ++c;
    }
    out.step_ms.push_back(step_ns / 1e6);
  }
  out.run_gbs.push_back(bytes / busy_ns);
  return true;
}

Counts CollBench::count(Bound& b, const std::vector<std::vector<Op>>& rounds,
                        Tally& tally) {
  CollStats s(max_calls_);
  if (!run(b, rounds, {}, false, 0, s)) {
    tally.attempted += s.tally.attempted;
    tally.failed += s.tally.failed;
    return {};
  }
  tally.attempted += s.tally.attempted;
  tally.failed += s.tally.failed;
  return read_counts(*b.team, s.tally.attempted);
}

Counts read_counts(const Team& team, std::uint64_t calls) {
  Counts k;
  k.calls = calls;
  k.dav = team.total_dav().total();
  k.kernels = team.total_kernels().total();
  const auto sync = team.total_sync();
  k.barriers = sync.barriers;
  k.flags = sync.flag_posts + sync.flag_waits;
  return k;
}

}  // namespace perfbench
