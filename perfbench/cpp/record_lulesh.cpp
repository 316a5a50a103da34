// record-lulesh: the write path. Full-fidelity mini-Lulesh (MPI+MiniOMP)
// at 27 ranks x 4 OMP threads on the knl model, with SectionProfiler,
// MpiChecker, TelemetrySampler and TraceRecorder attached. One iteration
// builds a world, then runs World::run -> MpiChecker::analyze ->
// TraceRecorder::finish -> codec::compress -> write .mpstz + telemetry CSV.
//
// Output checks, outside the timed part of each iteration:
//   * codec::decompress(packed).encode() equals the flat .mpst bytes,
//   * trace::verify_roundtrip(trace) is ok,
//   * MpiChecker reports zero errors,
//   * packed bytes and telemetry CSV are identical in every iteration,
//     and their digests are printed for run.py to compare with the stored
//     digests of the seed.
#include <fstream>
#include <functional>
#include <memory>
#include <optional>

#include "apps/lulesh/lulesh.hpp"
#include "bench.hpp"
#include "checker/checker.hpp"
#include "codec/mpstz.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/error.hpp"
#include "mpisim/session.hpp"
#include "obs/spans.hpp"
#include "profiler/section_profiler.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeline.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

namespace perfbench {

namespace {

using namespace mpisect;

constexpr int kRanks = 27;
constexpr int kThreads = 4;
constexpr int kEdge = 8;
constexpr int kSteps = 12;
constexpr int kSetups = 3;
constexpr double kRankSteps = static_cast<double>(kRanks) * kSteps;

struct Inputs {
  std::uint64_t world_seed = 0;
  double e0 = 0.1;  ///< Sedov blast energy
};

/// The seed picks the world's RNG seed (compute noise, jitter) and the
/// blast energy within +-10% of the default.
Inputs make_inputs(std::uint64_t seed) {
  SeedStream s(seed ^ 0x1D1E54ULL);
  Inputs in;
  in.world_seed = s.next();
  in.e0 = 0.1 * (0.9 + 0.2 * s.unit());
  return in;
}

void write_file(const std::string& path, const void* data, std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

/// Timings of one iteration (seconds) plus its outputs.
struct Iteration {
  double build = 0.0;
  double run = 0.0;
  double analyze = 0.0;
  double finish = 0.0;
  double compress = 0.0;
  double export_csv = 0.0;
  double encode = 0.0;  ///< flat TraceFile::encode (check phase)
  double total = 0.0;   ///< run .. files written
  std::uint64_t events = 0;
  std::size_t flat_bytes = 0;
  std::vector<std::uint8_t> packed;
  std::string csv;
  SchedDelta sched;
  double bytes_per_rank = 0.0;
  double stack_hwm = 0.0;
  std::optional<RankProbe> probe;
};

/// One iteration on a fresh world. Checks land in `r`; with `traced`,
/// probes are attached and the scheduler's wall-clock timing is on.
Iteration iterate(const Inputs& in, const Options& opt, bool traced,
                  SpanLog& log, Result& r) {
  Iteration it;
  std::unique_ptr<mpisim::World> world;
  it.build = timed(log, "mpisim.WorldBuilder::build", [&] {
    world = mpisim::Session(kRanks)
                .world_builder()
                .machine(mpisim::MachineModel::knl())
                .seed(in.world_seed)
                .build();
  });
  sections::SectionRuntime::install(*world);
  profiler::SectionProfiler profiler(*world);
  auto checker = checker::MpiChecker::install(*world);
  auto sampler = telemetry::TelemetrySampler::install(*world);
  auto recorder =
      trace::TraceRecorder::install(*world, {.app = "lulesh perfbench"});
  std::optional<Probes> probes;
  if (traced) probes.emplace(*world);

  apps::lulesh::LuleshConfig cfg;
  cfg.s = kEdge;
  cfg.steps = kSteps;
  cfg.omp_threads = kThreads;
  cfg.full_fidelity = true;
  cfg.e0 = in.e0;
  apps::lulesh::LuleshApp app(cfg);

  trace::TraceFile tf;
  const std::string mpstz = opt.workdir + "/lulesh.mpstz";
  const std::string csv_path = opt.workdir + "/lulesh.telemetry.csv";
  const std::uint32_t span = log.open("record.iteration");
  const double t0 = now_s();
  {
    if (traced) obs::set_timing(true);
    const SchedWatch watch;
    it.run = timed(log, "mpisim.World::run", [&] { world->run(std::ref(app)); });
    it.sched = watch.delta();
    obs::set_timing(false);
  }
  it.analyze = timed(log, "checker.analyze", [&] { checker->analyze(); });
  it.finish = timed(log, "trace.finish", [&] { tf = recorder->finish(); });
  it.compress =
      timed(log, "codec.compress", [&] { it.packed = codec::compress(tf); });
  timed(log, "io.write_mpstz", [&] {
    write_file(mpstz, it.packed.data(), it.packed.size());
  });
  it.export_csv = timed(log, "telemetry.export", [&] {
    it.csv = telemetry::timeline_csv(telemetry::build_timeline(*sampler));
    write_file(csv_path, it.csv.data(), it.csv.size());
  });
  it.total = now_s() - t0;
  log.close(span);

  it.events = tf.total_events();
  it.bytes_per_rank = world->mem_account().bytes_per_rank();
  it.stack_hwm =
      static_cast<double>(world->executor().stats().stack_bytes_hwm.load());
  if (probes) it.probe = probes->total();

  // Output checks.
  std::vector<std::uint8_t> flat;
  it.encode = timed(log, "trace.encode", [&] { flat = tf.encode(); });
  it.flat_bytes = flat.size();
  if (codec::decompress(it.packed).encode() != flat) {
    r.fail_check("decompress(packed).encode() differs from the flat bytes");
  }
  const trace::VerifyResult v = trace::verify_roundtrip(tf);
  if (!v.ok) r.fail_check("verify_roundtrip: " + v.detail);
  const std::size_t errors = checker->sink().error_count();
  if (errors != 0) {
    r.fail_check("MpiChecker reported " + std::to_string(errors) +
                 " errors");
  }
  return it;
}

}  // namespace

void run_record_lulesh(const Options& opt, Result& r) {
  const Inputs in = make_inputs(opt.seed);
  SpanLog log(opt.trace);
  r.note("record-lulesh: " + std::to_string(kRanks) + " ranks x " +
         std::to_string(kThreads) + " OMP threads, s=" +
         std::to_string(kEdge) + ", " + std::to_string(kSteps) +
         " steps, knl, profiler+checker+telemetry+recorder");

  // Set-up: whole warm-up iterations on fresh worlds (page cache, heap,
  // first-touch of every code path); the first one's outputs are the
  // reference every later iteration must reproduce byte for byte.
  Calibration cal;
  Samples setup;
  Iteration ref;
  double first_rss = 0.0;  ///< after one whole iteration
  for (int i = 0; i < kSetups; ++i) {
    cal.measure(r);
    const double t0 = now_s();
    Iteration it = iterate(in, opt, false, log, r);
    setup.add(t0, now_s() - t0);
    if (i == 0) {
      first_rss = peak_rss_mb();
      ref = std::move(it);
    } else if (it.packed != ref.packed || it.csv != ref.csv) {
      r.fail_check("outputs differ between set-up iterations");
    }
  }

  note_digest(r, "mpstz", digest_bytes(ref.packed.data(), ref.packed.size()));
  note_digest(r, "telemetry_csv", digest_bytes(ref.csv.data(), ref.csv.size()));

  std::vector<Iteration> plain, traced;
  Samples totals;
  run_for(opt.seconds, kMinMedianSamples, kCapSeconds, [&] {
    ++r.attempted;
    try {
      for (int pass = 0; pass < (opt.trace ? 2 : 1); ++pass) {
        if (pass == 0) cal.measure(r);
        const double start = now_s();
        Iteration it = iterate(in, opt, pass == 1, log, r);
        if (pass == 0) totals.add(start, it.total);
        if (it.packed != ref.packed || it.csv != ref.csv) {
          r.fail_check("outputs differ between iterations");
        }
        it.packed.clear();
        it.csv.clear();
        (pass == 0 ? plain : traced).push_back(std::move(it));
      }
    } catch (const mpisim::MpiError& e) {
      ++r.failed;
      r.note(std::string("iteration failed: ") + e.what());
    } catch (const trace::TraceError& e) {
      ++r.failed;
      r.note(std::string("iteration failed: ") + e.what());
    }
    return true;
  });
  r.set("peak_rss_mb", first_rss);
  r.set("process.rss_growth_mb", peak_rss_mb() - first_rss);
  if (plain.empty()) return;

  auto med = [](const std::vector<Iteration>& v, double Iteration::*field) {
    std::vector<double> xs;
    xs.reserve(v.size());
    for (const Iteration& it : v) xs.push_back(it.*field);
    return median(xs);
  };
  const double events = static_cast<double>(ref.events);
  const double total = med(plain, &Iteration::total);
  const double total_ref_med = median(cal.scale(totals.secs, totals.at));
  const double run = med(plain, &Iteration::run);
  r.set("setup_s", median(cal.scale(setup.secs, setup.at)));
  r.set("work_per_s", events / total_ref_med);
  r.set("op_ms_p50", total_ref_med * 1e3);
  r.note("recorded_events_per_s = " + std::to_string(events / total_ref_med) +
         " events/s at reference speed, " + std::to_string(events / total) +
         " as measured (" + std::to_string(ref.events) +
         " events, median of " + std::to_string(plain.size()) +
         " iterations)");
  r.note("rank_steps_per_s = " + std::to_string(kRankSteps / run) +
         " rank-steps/s (median World::run)");
  note_measured(r, median(setup.secs), events / total, total * 1e3);
  cal.note(r);
  r.note("codec: " + std::to_string(ref.flat_bytes) + " -> " +
         std::to_string(ref.packed.size()) + " bytes");

  if (!opt.trace || traced.empty()) return;
  const double ttotal = med(traced, &Iteration::total);
  r.set("mpisim.build_ms", med(traced, &Iteration::build) * 1e3);
  r.set("mpisim.run_ns_per_rank_step",
        med(traced, &Iteration::run) / kRankSteps * 1e9);
  std::vector<SchedDelta> sched;
  RankProbe sum;
  for (const Iteration& it : traced) {
    sched.push_back(it.sched);
    sum += *it.probe;
  }
  set_sched_layers(r, sched, kRankSteps);
  r.set("mpisim.mem.bytes_per_rank", med(traced, &Iteration::bytes_per_rank));
  r.set("mpisim.mem.stack_bytes_hwm", med(traced, &Iteration::stack_hwm));
  set_world_layers(r, sum, static_cast<double>(traced.size()), kRankSteps);
  r.set("checker.analyze_ms", med(traced, &Iteration::analyze) * 1e3);
  r.set("telemetry.export_ms", med(traced, &Iteration::export_csv) * 1e3);
  r.set("trace.events", events);
  r.set("trace.finish_ms", med(traced, &Iteration::finish) * 1e3);
  r.set("trace.encode_ns_per_event",
        med(traced, &Iteration::encode) / events * 1e9);
  r.set("codec.compress_ns_per_event",
        med(traced, &Iteration::compress) / events * 1e9);
  r.set("codec.compress_share", med(traced, &Iteration::compress) / ttotal);
  r.set("codec.ratio", static_cast<double>(ref.flat_bytes) /
                           static_cast<double>(ref.packed.size()));
  r.set("obs.trace_overhead_pct", (ttotal - total) / total * 100.0);
  log.write_chrome(opt.workdir + "/record-lulesh.spans.json");
}

}  // namespace perfbench
