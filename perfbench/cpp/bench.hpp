// Shared pieces of the benchmark driver: run options, sample statistics,
// the bench-owned span log, the metric tables, and the two hooks::Tool
// probes the traced runs attach through World::tool_stack().
//
// Nothing here reaches inside the library: every measurement is taken
// around a public call, or by a Tool registered through the public stack.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mpisim/runtime.hpp"
#include "mpisim/toolstack.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  ///< scratch files (.mpstz, CSV, span log)
};

/// Steady-clock seconds since an arbitrary epoch.
[[nodiscard]] double now_s() noexcept;
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// splitmix64: one seed in, a stream of independent 64-bit draws out.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  /// Uniform double in [0, 1).
  double unit() noexcept;

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile of `v` (copied, then sorted); 0 if empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(const std::vector<double>& v);
/// (q3 - q1) / median as a percentage; 0 for fewer than 2 samples.
[[nodiscard]] double spread_pct(const std::vector<double>& v);
/// A percentile q is reported only when at least ten samples lie beyond it.
[[nodiscard]] bool reportable(std::size_t n, double q) noexcept;

/// In-memory span log, written as chrome://tracing JSON when the run ends.
/// Single-threaded: spans are taken on the driver thread around calls
/// into the layers. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Open a span; returns its id (0 when disabled). `name` must be a
  /// string literal.
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);

  bool write_chrome(const std::string& path) const;

 private:
  struct Rec {
    const char* name = nullptr;
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
    std::uint32_t parent = 0;  ///< id of the enclosing span, 0 = root
  };
  bool enabled_;
  std::vector<Rec> spans_;  ///< id = index + 1
  std::vector<std::uint32_t> stack_;
};

/// Time `fn()` in wall seconds, recording a span named `name` in `log`.
template <typename Fn>
double timed(SpanLog& log, const char* name, Fn&& fn) {
  const std::uint32_t id = log.open(name);
  const double t0 = now_s();
  fn();
  const double dt = now_s() - t0;
  log.close(id);
  return dt;
}

/// Name and unit of one printed metric.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_table();
/// Per-layer metrics, in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_table();

/// What a workload reports. Metrics not set keep the value 0 (a layer the
/// workload does not exercise).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Human-readable report lines printed before the JSON result.
  std::vector<std::string> lines;

  void set(const std::string& name, double v) { values[name] = v; }
  /// Record a failed output check (the run's result becomes incorrect).
  void fail_check(const std::string& what);
  void note(const std::string& line) { lines.push_back(line); }
};

/// Machine-speed calibration of the single-threaded workloads
/// (record-lulesh, whatif-serve). The hosts this benchmark runs on change
/// speed by tens of percent over minutes (other tenants share the cores
/// and caches), which moves every wall time of a run together. Those
/// workloads therefore time a fixed single-threaded kernel between their
/// samples and report their timings scaled to a reference speed: each wall
/// time x (reference kernel time / median of the kernel timings nearest to
/// it). The kernel is the benchmark's own (sort and hash-map probes over
/// 2^16 keys), so no change to the program can move it. sim-16k keeps every
/// core busy, which one kernel thread does not track (scaling widened its
/// spread over ten seeds from 3.5% to 13%), so it reports raw wall time.
class Calibration {
 public:
  /// Kernel seconds on the reference host: a 4-vCPU 2.1 GHz x86-64 VM
  /// (GCC 12.2, -O2), median of its runs there.
  static constexpr double kReferenceSeconds = 0.0085;
  /// Kernel timings whose median scales one sample.
  static constexpr std::size_t kNeighbours = 5;

  /// Time the kernel now (fastest of three runs). Fails the result if
  /// other threads of this process were busy meanwhile: a program that
  /// left work running would slow the kernel and flatter itself.
  void measure(Result& r);
  /// measure() unless the last measurement is younger than `max_age_s`.
  void refresh(Result& r, double max_age_s);
  /// Reference-speed times of samples `secs[i]` taken at now_s() ==
  /// `at[i]`.
  [[nodiscard]] std::vector<double> scale(const std::vector<double>& secs,
                                          const std::vector<double>& at) const;
  /// Report line: kernel median and sample count.
  void note(Result& r) const;

 private:
  struct Timing {
    double at = 0.0;    ///< now_s() when measured
    double secs = 0.0;  ///< fastest kernel run
  };
  std::vector<Timing> timings_;
};

/// Report line "as measured: setup_s=.. work_per_s=.. op_ms_p50=..": the
/// end-to-end timings before calibration scaling, which run.py keeps in
/// the ledger so that sweep.py can show their spread next to the scaled
/// metrics'.
void note_measured(Result& r, double setup_s, double work_per_s,
                   double op_ms_p50);

/// Wall-clock samples of one kind, each with the time it started.
struct Samples {
  std::vector<double> secs;
  std::vector<double> at;
  void add(double start, double s) {
    at.push_back(start);
    secs.push_back(s);
  }
};

/// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// Per-rank counters shared by the two probe tools. One cache line per
/// rank: ranks run on different workers, and a rank never runs on two at
/// once, so each slot has a single writer at a time.
struct alignas(64) RankProbe {
  std::uint64_t events = 0;        ///< every observed tool event
  std::uint64_t calls = 0;         ///< MPI entry points (call_begin)
  std::uint64_t collectives = 0;   ///< collective entry points
  std::uint64_t messages = 0;      ///< modelled messages (send_post taps)
  std::uint64_t bytes = 0;         ///< payload bytes of those messages
  std::uint64_t omp_regions = 0;   ///< MiniOMP regions charged
  std::uint64_t timed_events = 0;  ///< begin-type events timed inner-outer
  std::uint64_t dispatch_ns = 0;   ///< summed outer->inner wall time
  std::uint64_t t_outer = 0;       ///< stamp of the open begin-type event

  /// Add `o`'s counts (not its open stamp).
  RankProbe& operator+=(const RankProbe& o) noexcept;
};

/// Outermost / innermost tool pair. The outer probe counts every event and
/// stamps begin-type events; the inner probe, dispatched after every
/// in-tree tool on begin-type events, closes the stamp. The difference is
/// the ToolStack dispatch plus the in-tree tools' handlers for that event.
class ProbeTool : public mpisect::mpisim::hooks::Tool {
 public:
  enum class Role { Outer, Inner };
  ProbeTool(std::vector<RankProbe>& slots, Role role)
      : slots_(slots), role_(role) {}

  void on_call_begin(mpisect::mpisim::Ctx& ctx,
                     const mpisect::mpisim::CallInfo& info) override;
  void on_call_end(mpisect::mpisim::Ctx& ctx,
                   const mpisect::mpisim::CallInfo& info) override;
  void on_section_enter(mpisect::mpisim::Ctx& ctx, mpisect::mpisim::Comm&,
                        const char*, char*) override;
  void on_section_leave(mpisect::mpisim::Ctx& ctx, mpisect::mpisim::Comm&,
                        const char*, char*) override;
  void on_pcontrol(mpisect::mpisim::Ctx& ctx, int, const char*) override;
  void on_comm_create(mpisect::mpisim::Ctx& ctx,
                      const mpisect::mpisim::CommLifecycle&) override;
  void on_comm_free(mpisect::mpisim::Ctx& ctx, int) override;
  void on_send_post(mpisect::mpisim::Ctx& ctx,
                    const mpisect::mpisim::TapSend& t) override;
  void on_send_wait(mpisect::mpisim::Ctx& ctx,
                    const mpisect::mpisim::TapSendWait&) override;
  void on_recv_post(mpisect::mpisim::Ctx& ctx,
                    const mpisect::mpisim::TapRecvPost&) override;
  void on_recv_wait(mpisect::mpisim::Ctx& ctx,
                    const mpisect::mpisim::TapRecvWait&) override;
  void on_probe(mpisect::mpisim::Ctx& ctx,
                const mpisect::mpisim::TapProbe&) override;
  void on_nbc_post(mpisect::mpisim::Ctx& ctx,
                   const mpisect::mpisim::TapNbcPost&) override;
  void on_nbc_complete(mpisect::mpisim::Ctx& ctx,
                       const mpisect::mpisim::TapNbcComplete&) override;
  void on_comm_sync(mpisect::mpisim::Ctx& ctx,
                    const mpisect::mpisim::TapCommSync&) override;
  void on_coll_entry(mpisect::mpisim::Ctx& ctx, std::uint64_t,
                     double) override;
  void on_omp_region(mpisect::mpisim::Ctx& ctx,
                     const mpisect::mpisim::TapOmpRegion&) override;
  // on_request_test is not observed: poll counts depend on scheduling,
  // and every count this probe reports must repeat exactly.

 private:
  void begin(const mpisect::mpisim::Ctx& ctx) noexcept;
  void end(const mpisect::mpisim::Ctx& ctx) noexcept;

  std::vector<RankProbe>& slots_;
  Role role_;
};

/// Both probes of one world, attached at the outermost and innermost
/// orders for the lifetime of the object.
class Probes {
 public:
  explicit Probes(mpisect::mpisim::World& world);
  ~Probes();
  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;

  /// Sum of every rank's slot.
  [[nodiscard]] RankProbe total() const;
  /// Zero every slot (between runs only).
  void reset();

 private:
  mpisect::mpisim::World& world_;
  std::vector<RankProbe> slots_;
  ProbeTool outer_;
  ProbeTool inner_;
};

/// Scheduler counters (obs::counters()) accumulated over one World::run.
struct SchedDelta {
  double busy_ms = 0.0;
  double idle_ms = 0.0;
  double switches = 0.0;
  double parks = 0.0;
};

/// Snapshot obs::counters() before a run; `delta()` after it.
class SchedWatch {
 public:
  SchedWatch();
  [[nodiscard]] SchedDelta delta() const;

 private:
  std::uint64_t busy_ns_, idle_ns_, switches_, parks_;
};

/// Layer metrics every workload reads off its probes: `probe` summed over
/// `runs` World::run calls of `rank_steps` rank-steps each.
void set_world_layers(Result& r, const RankProbe& probe, double runs,
                      double rank_steps);
/// Scheduler layer metrics from one SchedDelta per traced World::run of
/// `rank_steps` rank-steps.
void set_sched_layers(Result& r, const std::vector<SchedDelta>& runs,
                      double rank_steps);

/// Worker threads for the cooperative executor: the CPUs this process may
/// run on (what `nproc` prints).
[[nodiscard]] int nproc();

/// FNV-1a over the exact bit patterns of a vector of doubles.
[[nodiscard]] std::uint64_t digest_doubles(const std::vector<double>& v);
/// FNV-1a over a byte string.
[[nodiscard]] std::uint64_t digest_bytes(const void* data, std::size_t n);
/// Report line "digest <name> <16 hex digits>". run.py compares these lines
/// with the stored digests of the seed (perfbench/digests.json).
void note_digest(Result& r, const char* name, std::uint64_t digest);

/// Run for at least `seconds` and `min_samples` iterations of `step`, but
/// stop at `cap_seconds` regardless. Returns the number of iterations.
template <typename Step>
std::size_t run_for(double seconds, std::size_t min_samples,
                    double cap_seconds, Step&& step) {
  const double t0 = now_s();
  std::size_t n = 0;
  for (;;) {
    const double el = now_s() - t0;
    if ((el >= seconds && n >= min_samples) || el >= cap_seconds) break;
    if (!step()) break;
    ++n;
  }
  return n;
}

/// Workloads.
void run_sim_16k(const Options& opt, Result& r);
void run_record_lulesh(const Options& opt, Result& r);
void run_whatif_serve(const Options& opt, Result& r);

/// Minimum samples for a reportable median (ten beyond it on each side).
inline constexpr std::size_t kMinMedianSamples = 21;
/// Hard wall-clock cap on a timed loop, well inside the 180 s run limit.
inline constexpr double kCapSeconds = 110.0;

}  // namespace perfbench
