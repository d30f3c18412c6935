#include "yhccl/bench/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "yhccl/common/time.hpp"
#include "yhccl/copy/cache_model.hpp"

namespace yhccl::bench {

namespace {

int env_int(const char* name, int fallback) {
  if (const char* e = std::getenv(name)) {
    const int v = std::atoi(e);
    if (v > 0) return v;
  }
  return fallback;
}

double env_double(const char* name, double fallback) {
  if (const char* e = std::getenv(name)) {
    const double v = std::atof(e);
    if (v > 0) return v;
  }
  return fallback;
}

Json summary_to_json(const Summary& s) {
  Json j = Json::object();
  j.set("reps", s.reps);
  j.set("rejected", s.rejected);
  j.set("median_s", s.median);
  j.set("mad_s", s.mad);
  j.set("mean_s", s.mean);
  j.set("min_s", s.min);
  j.set("max_s", s.max);
  j.set("ci_low_s", s.ci_low);
  j.set("ci_high_s", s.ci_high);
  return j;
}

Summary summary_from_json(const Json& j) {
  Summary s;
  s.reps = j["reps"].as_uint();
  s.rejected = j["rejected"].as_uint();
  s.median = j["median_s"].as_double();
  s.mad = j["mad_s"].as_double();
  s.mean = j["mean_s"].as_double();
  s.min = j["min_s"].as_double();
  s.max = j["max_s"].as_double();
  s.ci_low = j["ci_low_s"].as_double();
  s.ci_high = j["ci_high_s"].as_double();
  return s;
}

}  // namespace

// ---- RunPolicy ---------------------------------------------------------------

RunPolicy RunPolicy::from_env() {
  RunPolicy p;
  p.warmup = env_int("YHCCL_BENCH_WARMUP", p.warmup);
  p.min_reps = env_int("YHCCL_BENCH_MIN_REPS", p.min_reps);
  p.max_reps = env_int("YHCCL_BENCH_REPS", p.max_reps);
  p.target_rel_ci = env_double("YHCCL_BENCH_CI", p.target_rel_ci);
  p.budget_s = env_double("YHCCL_BENCH_BUDGET", p.budget_s);
  if (p.max_reps < p.min_reps) p.max_reps = p.min_reps;
  return p;
}

Json RunPolicy::to_json() const {
  Json j = Json::object();
  j.set("warmup", warmup);
  j.set("min_reps", min_reps);
  j.set("max_reps", max_reps);
  j.set("target_rel_ci", target_rel_ci);
  j.set("budget_s", budget_s);
  j.set("outlier_k", outlier_k);
  return j;
}

// ---- MachineInfo -------------------------------------------------------------

MachineInfo MachineInfo::detect() {
  MachineInfo m;
  m.isa = copy::isa_name(copy::active_isa());
  m.detected_isa = copy::isa_name(copy::detected_isa());
  m.hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  const copy::CacheConfig c = copy::CacheConfig::detect();
  m.llc_bytes = c.llc_bytes;
  m.l2_per_core = c.l2_per_core;
  m.llc_inclusive = c.llc_inclusive;
  m.llc_counts = c.llc_counts;
  m.cache = c.describe();
  return m;
}

Json MachineInfo::to_json() const {
  Json j = Json::object();
  j.set("isa", isa);
  j.set("detected_isa", detected_isa);
  j.set("hw_threads", hw_threads);
  j.set("llc_bytes", llc_bytes);
  j.set("l2_per_core", l2_per_core);
  j.set("llc_inclusive", llc_inclusive);
  j.set("llc_counts", llc_counts);
  j.set("cache", cache);
  return j;
}

// ---- Counters ----------------------------------------------------------------

Json Counters::to_json() const {
  Json j = Json::object();
  j.set("dav_loads", dav.loads);
  j.set("dav_stores", dav.stores);
  j.set("kernels_scalar",
        kernels.calls[static_cast<int>(copy::IsaTier::scalar)]);
  j.set("kernels_avx2", kernels.calls[static_cast<int>(copy::IsaTier::avx2)]);
  j.set("kernels_avx512",
        kernels.calls[static_cast<int>(copy::IsaTier::avx512)]);
  j.set("barriers", sync.barriers);
  j.set("flag_posts", sync.flag_posts);
  j.set("flag_waits", sync.flag_waits);
  return j;
}

Counters Counters::from_json(const Json& j) {
  Counters c;
  c.dav.loads = j["dav_loads"].as_uint();
  c.dav.stores = j["dav_stores"].as_uint();
  c.kernels.calls[static_cast<int>(copy::IsaTier::scalar)] =
      j["kernels_scalar"].as_uint();
  c.kernels.calls[static_cast<int>(copy::IsaTier::avx2)] =
      j["kernels_avx2"].as_uint();
  c.kernels.calls[static_cast<int>(copy::IsaTier::avx512)] =
      j["kernels_avx512"].as_uint();
  c.sync.barriers = j["barriers"].as_uint();
  c.sync.flag_posts = j["flag_posts"].as_uint();
  c.sync.flag_waits = j["flag_waits"].as_uint();
  return c;
}

// ---- Series ------------------------------------------------------------------

std::string Series::key() const {
  std::ostringstream os;
  os << bench << '/' << collective << '/' << algorithm << "/p" << ranks
     << "m" << sockets << '/' << bytes << 'B';
  return os.str();
}

Json Series::to_json() const {
  Json j = Json::object();
  j.set("bench", bench);
  j.set("collective", collective);
  j.set("algorithm", algorithm);
  j.set("ranks", ranks);
  j.set("sockets", sockets);
  j.set("bytes", bytes);
  j.set("time", summary_to_json(time));
  j.set("dab_bytes_per_s", dab);
  j.set("counters", counters.to_json());
  j.set("isa", isa);
  return j;
}

Series Series::from_json(const Json& j) {
  Series s;
  s.bench = j["bench"].as_string();
  s.collective = j["collective"].as_string();
  s.algorithm = j["algorithm"].as_string();
  s.ranks = static_cast<int>(j["ranks"].as_int());
  s.sockets = static_cast<int>(j["sockets"].as_int());
  s.bytes = static_cast<std::size_t>(j["bytes"].as_int());
  s.time = summary_from_json(j["time"]);
  s.dab = j["dab_bytes_per_s"].as_double();
  s.counters = Counters::from_json(j["counters"]);
  s.isa = j["isa"].as_string();
  return s;
}

// ---- measurement -------------------------------------------------------------

Summary timed_run(rt::Team& team, const RankFn& fn, const RunPolicy& policy,
                  const IterHook& between_iters) {
  // Per-rank timing slots must live in the shared mapping so fork()ed
  // ranks can report through them; one bump allocation per cell (2 KB)
  // for the lifetime of the team.
  auto* slot = reinterpret_cast<double*>(
      team.shared_alloc(sizeof(double) * rt::kMaxRanks, alignof(double)));
  const int warm = std::max(policy.warmup, 0);
  const int min_reps = std::max(policy.min_reps, 1);
  const int max_reps = std::max(policy.max_reps, min_reps);

  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(max_reps));
  double spent = 0;
  for (int it = 0; it < warm + max_reps; ++it) {
    if (between_iters) between_iters(static_cast<unsigned>(it));
    team.run([&](rt::RankCtx& ctx) {
      // Align ranks before starting the clock: thread/process spawn skew
      // otherwise dominates small-message samples.
      ctx.barrier();
      const Timer t;
      fn(ctx);
      slot[ctx.rank()] = t.elapsed();
    });
    double worst = 0;
    for (int r = 0; r < team.nranks(); ++r) worst = std::max(worst, slot[r]);
    if (it < warm) continue;
    samples.push_back(worst);
    spent += worst;
    if (static_cast<int>(samples.size()) >= min_reps) {
      const Summary s = summarize(samples, policy.outlier_k);
      if (s.rel_ci() <= policy.target_rel_ci || spent > policy.budget_s)
        return s;
    }
  }
  return summarize(samples, policy.outlier_k);
}

Counters measure_counters(rt::Team& team, const RankFn& fn) {
  // Deliberately no harness barrier and no timing inside the run: the
  // captured totals must match coll::op_counts operation for operation.
  team.run(fn);
  Counters c;
  c.dav = team.total_dav();
  c.kernels = team.total_kernels();
  c.sync = team.total_sync();
  return c;
}

Series measure_series(rt::Team& team, Series meta, const RankFn& fn,
                      const RunPolicy& policy, const IterHook& between_iters) {
  meta.ranks = team.nranks();
  meta.sockets = team.topo().nsockets();
  meta.counters = measure_counters(team, fn);
  meta.isa = meta.counters.kernels.total()
                 ? copy::isa_name(meta.counters.kernels.dominant())
                 : "-";
  meta.time = timed_run(team, fn, policy, between_iters);
  meta.dab = meta.time.median > 0
                 ? static_cast<double>(meta.counters.dav.total()) /
                       meta.time.median
                 : 0;
  return meta;
}

// ---- Session -----------------------------------------------------------------

Session::Session(std::string name)
    : Session(std::move(name), RunPolicy::from_env()) {}

Session::Session(std::string name, RunPolicy policy)
    : name_(std::move(name)),
      policy_(policy),
      machine_(MachineInfo::detect()) {}

Json Session::to_json() const {
  Json j = Json::object();
  j.set("schema", kSchemaVersion);
  j.set("name", name_);
  j.set("machine", machine_.to_json());
  j.set("policy", policy_.to_json());
  Json arr = Json::array();
  for (const auto& s : series_) arr.push_back(s.to_json());
  j.set("series", std::move(arr));
  return j;
}

std::string Session::write() const {
  const char* dir = std::getenv("YHCCL_BENCH_JSON");
  if (!dir || !*dir) return {};
  std::string path = dir;
  if (path.back() != '/') path += '/';
  path += "BENCH_" + name_ + ".json";
  std::string err;
  if (!write_json_file(path, to_json(), &err)) {
    std::fprintf(stderr, "yhccl-bench: cannot write %s: %s\n", path.c_str(),
                 err.c_str());
    return {};
  }
  std::printf("yhccl-bench: wrote %s (%zu series)\n", path.c_str(),
              series_.size());
  return path;
}

// ---- file helpers ------------------------------------------------------------

Json load_json_file(const std::string& path, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (err) *err = "cannot open " + path;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::string perr;
  Json j = Json::parse(text, &perr);
  if (!perr.empty()) {
    if (err) *err = path + ": " + perr;
    return {};
  }
  if (err) err->clear();
  return j;
}

bool write_json_file(const std::string& path, const Json& j,
                     std::string* err) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (err) *err = "cannot open for writing";
    return false;
  }
  out << j.dump(2) << '\n';
  out.flush();
  if (!out) {
    if (err) *err = "write failed";
    return false;
  }
  return true;
}

}  // namespace yhccl::bench
