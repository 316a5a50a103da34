#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <unordered_map>

#include "obs/counters.hpp"
#include "support/digest.hpp"

namespace perfbench {

using namespace mpisect;

double now_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t SeedStream::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SeedStream::unit() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double spread_pct(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = median(v);
  if (m == 0.0) return 0.0;
  return (quantile(v, 0.75) - quantile(v, 0.25)) / m * 100.0;
}

bool reportable(std::size_t n, double q) noexcept {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

std::uint32_t SpanLog::open(const char* name) {
  if (!enabled_) return 0;
  Rec r;
  r.name = name;
  r.parent = stack_.empty() ? 0 : stack_.back();
  r.t0_ns = now_ns();
  spans_.push_back(r);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].t1_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().t0_ns;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%u}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.t0_ns - base) / 1e3,
                 static_cast<double>(s.t1_ns - s.t0_ns) / 1e3, i + 1,
                 s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

const std::vector<MetricSpec>& end_to_end_table() {
  static const std::vector<MetricSpec> table = {
      {"setup_s", "s"},
      {"work_per_s", "1/s"},
      {"op_ms_p50", "ms"},
      {"peak_rss_mb", "MB"},
      {"ok_frac", "ratio"},
  };
  return table;
}

const std::vector<MetricSpec>& per_layer_table() {
  static const std::vector<MetricSpec> table = {
      {"mpisim.build_ms", "ms"},
      {"mpisim.run_ns_per_rank_step", "ns"},
      {"mpisim.sched.busy_ms", "ms"},
      {"mpisim.sched.idle_ms", "ms"},
      {"mpisim.sched.switches_per_rank_step", "count"},
      {"mpisim.sched.switches_spread_pct", "%"},
      {"mpisim.sched.parks_per_rank_step", "count"},
      {"mpisim.sched.parks_spread_pct", "%"},
      {"mpisim.mem.bytes_per_rank", "B"},
      {"mpisim.mem.stack_bytes_hwm", "B"},
      {"mpisim.calls_per_rank_step", "count"},
      {"mpisim.msgs_per_rank_step", "count"},
      {"mpisim.bytes_per_rank_step", "B"},
      {"mpisim.colls_per_rank_step", "count"},
      {"minomp.regions_per_rank_step", "count"},
      {"toolstack.events", "count"},
      {"toolstack.dispatch_ns_per_event", "ns"},
      {"checker.analyze_ms", "ms"},
      {"telemetry.export_ms", "ms"},
      {"trace.events", "count"},
      {"trace.finish_ms", "ms"},
      {"trace.encode_ns_per_event", "ns"},
      {"codec.compress_ns_per_event", "ns"},
      {"codec.compress_share", "ratio"},
      {"codec.ratio", "ratio"},
      {"codec.decompress_ns_per_event", "ns"},
      {"serve.load_ms", "ms"},
      {"replay.ns_per_event", "ns"},
      {"telemetry.timeline_ms", "ms"},
      {"analysis.interp_ms", "ms"},
      {"analysis.races_ms", "ms"},
      {"analysis.latent_ms", "ms"},
      {"analysis.critical_path_ms", "ms"},
      {"serve.dispatch_us", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_evictions", "count"},
      {"serve.query_cold_ms_p90", "ms"},
      {"serve.query_warm_us_p50", "us"},
      {"serve.query_warm_us_p90", "us"},
      {"process.rss_growth_mb", "MB"},
      {"obs.trace_overhead_pct", "%"},
  };
  return table;
}

void Result::fail_check(const std::string& what) {
  correct = false;
  lines.push_back("CHECK FAILED: " + what);
}

namespace {

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

volatile std::uint64_t g_kernel_sink = 0;

/// The calibration kernel: sort 2^16 pseudo-random keys, index a quarter
/// of them in a hash map, probe the map with all of them. Returns the
/// thread's CPU seconds; the checksum goes to `sink`.
double calibration_kernel(std::uint64_t& sink) {
  const double c0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  constexpr std::size_t kKeys = std::size_t{1} << 16;
  SeedStream rng(42);
  std::vector<std::uint64_t> keys(kKeys);
  for (std::uint64_t& k : keys) k = rng.next();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint64_t, std::uint64_t> index;
  index.reserve(kKeys / 4);
  for (std::size_t i = 0; i < kKeys / 4; ++i) index[keys[4 * i]] = i;
  std::uint64_t h = 0;
  for (const std::uint64_t k : keys) {
    const auto it = index.find(k);
    h = h * 31 + (it == index.end() ? k : it->second);
  }
  sink = h;
  return cpu_s(CLOCK_THREAD_CPUTIME_ID) - c0;
}

}  // namespace

void Calibration::measure(Result& r) {
  double best = 1e300;
  double kernel_cpu = 0.0;
  double process_cpu = 0.0;
  std::uint64_t sum = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double p0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    const double t0 = now_s();
    kernel_cpu += calibration_kernel(sum);
    best = std::min(best, now_s() - t0);
    process_cpu += cpu_s(CLOCK_PROCESS_CPUTIME_ID) - p0;
  }
  g_kernel_sink = sum;
  if (process_cpu > 1.5 * kernel_cpu + 1e-3) {
    r.fail_check("other threads of the process ran during calibration");
  }
  timings_.push_back({now_s(), best});
}

void Calibration::refresh(Result& r, double max_age_s) {
  if (timings_.empty() || now_s() - timings_.back().at >= max_age_s) {
    measure(r);
  }
}

std::vector<double> Calibration::scale(const std::vector<double>& secs,
                                       const std::vector<double>& at) const {
  std::vector<double> out(secs.size());
  std::vector<std::pair<double, double>> near(timings_.size());
  for (std::size_t i = 0; i < secs.size(); ++i) {
    for (std::size_t j = 0; j < timings_.size(); ++j) {
      near[j] = {std::abs(timings_[j].at - at[i]), timings_[j].secs};
    }
    const std::size_t k = std::min(kNeighbours, near.size());
    std::partial_sort(near.begin(), near.begin() + static_cast<long>(k),
                      near.end());
    std::vector<double> kernel(k);
    for (std::size_t j = 0; j < k; ++j) kernel[j] = near[j].second;
    out[i] = k == 0 ? secs[i] : secs[i] * kReferenceSeconds / median(kernel);
  }
  return out;
}

void Calibration::note(Result& r) const {
  std::vector<double> secs;
  for (const Timing& t : timings_) secs.push_back(t.secs);
  r.note("calibration kernel: median " + std::to_string(median(secs) * 1e3) +
         " ms over " + std::to_string(secs.size()) +
         " measurements (reference " +
         std::to_string(kReferenceSeconds * 1e3) + " ms)");
}

void note_measured(Result& r, double setup_s, double work_per_s,
                   double op_ms_p50) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "as measured: setup_s=%.17g work_per_s=%.17g op_ms_p50=%.17g",
                setup_s, work_per_s, op_ms_p50);
  r.note(buf);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ProbeTool::begin(const mpisim::Ctx& ctx) noexcept {
  RankProbe& s = slots_[static_cast<std::size_t>(ctx.rank())];
  if (role_ == Role::Outer) {
    ++s.events;
    s.t_outer = now_ns();
  } else if (s.t_outer != 0) {
    s.dispatch_ns += now_ns() - s.t_outer;
    ++s.timed_events;
    s.t_outer = 0;
  }
}

void ProbeTool::end(const mpisim::Ctx& ctx) noexcept {
  if (role_ == Role::Outer) {
    ++slots_[static_cast<std::size_t>(ctx.rank())].events;
  }
}

void ProbeTool::on_call_begin(mpisim::Ctx& ctx, const mpisim::CallInfo& info) {
  if (role_ == Role::Outer) {
    RankProbe& s = slots_[static_cast<std::size_t>(ctx.rank())];
    ++s.calls;
    if (mpisim::is_collective(info.call)) ++s.collectives;
  }
  begin(ctx);
}
void ProbeTool::on_call_end(mpisim::Ctx& ctx, const mpisim::CallInfo&) {
  end(ctx);
}
void ProbeTool::on_section_enter(mpisim::Ctx& ctx, mpisim::Comm&,
                                 const char*, char*) {
  begin(ctx);
}
void ProbeTool::on_section_leave(mpisim::Ctx& ctx, mpisim::Comm&,
                                 const char*, char*) {
  end(ctx);
}
void ProbeTool::on_pcontrol(mpisim::Ctx& ctx, int, const char*) { begin(ctx); }
void ProbeTool::on_comm_create(mpisim::Ctx& ctx,
                               const mpisim::CommLifecycle&) {
  begin(ctx);
}
void ProbeTool::on_comm_free(mpisim::Ctx& ctx, int) { end(ctx); }
void ProbeTool::on_send_post(mpisim::Ctx& ctx, const mpisim::TapSend& t) {
  if (role_ == Role::Outer) {
    RankProbe& s = slots_[static_cast<std::size_t>(ctx.rank())];
    ++s.messages;
    s.bytes += t.bytes;
  }
  begin(ctx);
}
void ProbeTool::on_send_wait(mpisim::Ctx& ctx, const mpisim::TapSendWait&) {
  begin(ctx);
}
void ProbeTool::on_recv_post(mpisim::Ctx& ctx, const mpisim::TapRecvPost&) {
  begin(ctx);
}
void ProbeTool::on_recv_wait(mpisim::Ctx& ctx, const mpisim::TapRecvWait&) {
  begin(ctx);
}
void ProbeTool::on_probe(mpisim::Ctx& ctx, const mpisim::TapProbe&) {
  begin(ctx);
}
void ProbeTool::on_nbc_post(mpisim::Ctx& ctx, const mpisim::TapNbcPost&) {
  begin(ctx);
}
void ProbeTool::on_nbc_complete(mpisim::Ctx& ctx,
                                const mpisim::TapNbcComplete&) {
  begin(ctx);
}
void ProbeTool::on_comm_sync(mpisim::Ctx& ctx, const mpisim::TapCommSync&) {
  begin(ctx);
}
void ProbeTool::on_coll_entry(mpisim::Ctx& ctx, std::uint64_t, double) {
  begin(ctx);
}
void ProbeTool::on_omp_region(mpisim::Ctx& ctx, const mpisim::TapOmpRegion&) {
  if (role_ == Role::Outer) {
    ++slots_[static_cast<std::size_t>(ctx.rank())].omp_regions;
  }
  begin(ctx);
}

Probes::Probes(mpisim::World& world)
    : world_(world),
      slots_(static_cast<std::size_t>(world.size())),
      outer_(slots_, ProbeTool::Role::Outer),
      inner_(slots_, ProbeTool::Role::Inner) {
  world_.tool_stack().attach(&outer_, INT_MIN);
  world_.tool_stack().attach(&inner_, INT_MAX);
}

Probes::~Probes() {
  world_.tool_stack().detach(&inner_);
  world_.tool_stack().detach(&outer_);
}

RankProbe& RankProbe::operator+=(const RankProbe& o) noexcept {
  events += o.events;
  calls += o.calls;
  collectives += o.collectives;
  messages += o.messages;
  bytes += o.bytes;
  omp_regions += o.omp_regions;
  timed_events += o.timed_events;
  dispatch_ns += o.dispatch_ns;
  return *this;
}

RankProbe Probes::total() const {
  RankProbe t;
  for (const RankProbe& s : slots_) t += s;
  return t;
}

void Probes::reset() {
  for (RankProbe& s : slots_) s = RankProbe{};
}

SchedWatch::SchedWatch() {
  const obs::Counters& c = obs::counters();
  busy_ns_ = c.sched_busy_ns.load();
  idle_ns_ = c.sched_idle_ns.load();
  switches_ = c.sched_switches.load();
  parks_ = c.sched_parks.load();
}

SchedDelta SchedWatch::delta() const {
  const obs::Counters& c = obs::counters();
  SchedDelta d;
  d.busy_ms = static_cast<double>(c.sched_busy_ns.load() - busy_ns_) / 1e6;
  d.idle_ms = static_cast<double>(c.sched_idle_ns.load() - idle_ns_) / 1e6;
  d.switches = static_cast<double>(c.sched_switches.load() - switches_);
  d.parks = static_cast<double>(c.sched_parks.load() - parks_);
  return d;
}

void set_world_layers(Result& r, const RankProbe& probe, double runs,
                      double rank_steps) {
  rank_steps *= runs;
  r.set("mpisim.calls_per_rank_step",
        static_cast<double>(probe.calls) / rank_steps);
  r.set("mpisim.msgs_per_rank_step",
        static_cast<double>(probe.messages) / rank_steps);
  r.set("mpisim.bytes_per_rank_step",
        static_cast<double>(probe.bytes) / rank_steps);
  r.set("mpisim.colls_per_rank_step",
        static_cast<double>(probe.collectives) / rank_steps);
  r.set("minomp.regions_per_rank_step",
        static_cast<double>(probe.omp_regions) / rank_steps);
  r.set("toolstack.events", static_cast<double>(probe.events) / runs);
  r.set("toolstack.dispatch_ns_per_event",
        probe.timed_events == 0
            ? 0.0
            : static_cast<double>(probe.dispatch_ns) /
                  static_cast<double>(probe.timed_events));
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void set_sched_layers(Result& r, const std::vector<SchedDelta>& runs,
                      double rank_steps) {
  std::vector<double> busy, idle, switches, parks;
  for (const SchedDelta& d : runs) {
    busy.push_back(d.busy_ms);
    idle.push_back(d.idle_ms);
    switches.push_back(d.switches / rank_steps);
    parks.push_back(d.parks / rank_steps);
  }
  r.set("mpisim.sched.busy_ms", median(busy));
  r.set("mpisim.sched.idle_ms", median(idle));
  r.set("mpisim.sched.switches_per_rank_step", median(switches));
  r.set("mpisim.sched.switches_spread_pct", spread_pct(switches));
  r.set("mpisim.sched.parks_per_rank_step", median(parks));
  r.set("mpisim.sched.parks_spread_pct", spread_pct(parks));
}

std::uint64_t digest_doubles(const std::vector<double>& v) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

std::uint64_t digest_bytes(const void* data, std::size_t n) {
  return support::fnv1a64(
      std::span<const std::uint8_t>(static_cast<const std::uint8_t*>(data), n));
}

void note_digest(Result& r, const char* name, std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, digest);
  r.note(std::string("digest ") + name + " " + buf);
}

}  // namespace perfbench
