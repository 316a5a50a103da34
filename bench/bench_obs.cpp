// Self-observability overhead and scaling — the span tracer's always-on
// contract, measured:
//
//   * overhead: running the 64-rank convolution with self-tracing enabled
//     (spans recorded, scheduler busy/idle timing armed) must leave every
//     rank's final virtual time bit-identical to the disabled run and cost
//     < 2% extra CPU on the full-fidelity workload. Bit-identity failures
//     and (unless --no-enforce) overhead above the bar exit nonzero.
//     Emits BENCH_obs.json.
//   * scale: how many simulated ranks the scheduler hosts per wall-clock
//     second, and the exact channel bytes/rank high-water mark, as p grows
//     64 -> 4096 and beyond (strong scaling: the grid is 256 x max(4096,p)
//     rows so the row decomposition stays valid up to 65,536 ranks).
//     Emits BENCH_scale.json; CI floors the p=256 ranks/s against a
//     committed baseline.
//   * init: Session/WorldBuilder construction time, 1k -> 65k ranks.
//     World construction is lazy, O(1) per unstarted rank; the curve
//     proves it.
//   * matching: hashed vs legacy engine on the adversarial funnel (rank 0
//     posts p-1 descending-source receives, every other rank sends one
//     message), where the legacy scan is O(p^2). Virtual times must be
//     bit-identical between engines; at p >= 16384 the hashed engine must
//     be >= 2x faster (enforced unless --no-enforce).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "common.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/session.hpp"
#include "obs/counters.hpp"
#include "obs/memory.hpp"
#include "obs/spans.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

namespace {

using namespace mpisect;

struct Workload {
  int width = 0;
  int height = 0;
  int steps = 0;
  bool full_fidelity = false;
};

struct Measurement {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double virtual_s = 0.0;
  std::vector<double> final_times;
  double bytes_per_rank = 0.0;
  std::uint64_t spans = 0;
};

Measurement run_once(int nranks, const Workload& w, std::uint64_t seed,
                     bool traced) {
  obs::set_enabled_for_test(traced);
  if (traced) obs::reset_spans_for_test();
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = seed;
  const auto world_ptr =
      mpisim::Session(nranks, opts).world_builder().build();
  mpisim::World& world = *world_ptr;
  sections::SectionRuntime::install(world);
  apps::conv::ConvolutionConfig cfg;
  cfg.width = w.width;
  cfg.height = w.height;
  cfg.steps = w.steps;
  cfg.full_fidelity = w.full_fidelity;
  apps::conv::ConvolutionApp app(cfg);
  timespec c0{}, c1{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c0);
  const auto t0 = std::chrono::steady_clock::now();
  world.run(std::ref(app));
  const auto t1 = std::chrono::steady_clock::now();
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c1);
  Measurement m;
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  m.cpu_s = static_cast<double>(c1.tv_sec - c0.tv_sec) +
            static_cast<double>(c1.tv_nsec - c0.tv_nsec) * 1e-9;
  m.virtual_s = world.elapsed();
  m.final_times = world.final_times();
  m.bytes_per_rank = world.mem_account().bytes_per_rank();
  m.spans = obs::spans_recorded();
  obs::set_enabled_for_test(false);
  return m;
}

/// Best-of-N by CPU time; verifies bit-identity of virtual time every rep.
bool measure(int nranks, const Workload& w, std::uint64_t seed, int reps,
             Measurement& off, Measurement& on) {
  for (int rep = 0; rep < reps; ++rep) {
    Measurement a = run_once(nranks, w, seed, /*traced=*/false);
    Measurement b = run_once(nranks, w, seed, /*traced=*/true);
    if (rep == 0 || a.cpu_s < off.cpu_s) off = a;
    if (rep == 0 || b.cpu_s < on.cpu_s) on = b;
    if (a.final_times != b.final_times) {
      std::fprintf(stderr,
                   "FAIL: self-trace perturbed virtual time (rep %d): "
                   "makespan off=%.17g on=%.17g\n",
                   rep, a.virtual_s, b.virtual_s);
      return false;
    }
  }
  return true;
}

double overhead_pct(const Measurement& off, const Measurement& on) {
  return off.cpu_s > 0.0 ? (on.cpu_s - off.cpu_s) / off.cpu_s * 100.0 : 0.0;
}

double now_wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Adversarial matching funnel: rank 0 posts p-1 explicit-source receives
/// in DESCENDING source order, then every other rank sends one eager
/// message. Deposits arrive in ascending source order (cooperative
/// scheduling), so the legacy engine scans past every not-yet-matched
/// posted receive on each deposit — Theta(p^2) compares — while the hashed
/// engine finds the (src,tag) lane head in O(1).
void funnel_body(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  const int p = world.size();
  static const char payload[8] = {};
  if (world.rank() == 0) {
    std::vector<char> bufs(static_cast<std::size_t>(p - 1) * 8);
    std::vector<mpisim::Comm::Request> reqs;
    reqs.reserve(static_cast<std::size_t>(p - 1));
    for (int src = p - 1; src >= 1; --src) {
      reqs.push_back(
          world.irecv(&bufs[static_cast<std::size_t>(src - 1) * 8], 8, src,
                      /*tag=*/7));
    }
    mpisim::waitall(reqs);
  } else {
    world.send(payload, sizeof payload, 0, /*tag=*/7);
  }
}

struct FunnelResult {
  double wall_s = 0.0;
  std::vector<double> final_times;
};

FunnelResult funnel_once(int p, const std::string& match) {
  const auto world_ptr = mpisim::Session(p)
                             .world_builder()
                             .machine(mpisim::MachineModel::nehalem_cluster())
                             .seed(0xC0FFEE)
                             .match_spec(match)
                             .build();
  mpisim::World& world = *world_ptr;
  FunnelResult r;
  const double t0 = now_wall_s();
  world.run(funnel_body);
  r.wall_s = now_wall_s() - t0;
  r.final_times = world.final_times();
  return r;
}

/// Construction-only timing (no run) of a lazily built world.
double init_lazy_s(int p) {
  const double t0 = now_wall_s();
  const auto world_ptr =
      mpisim::Session(p)
          .world_builder()
          .machine(mpisim::MachineModel::nehalem_cluster())
          .build();
  return now_wall_s() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpisect::bench;
  support::ArgParser args(
      "bench_obs",
      "Measure the self-observability layer: span-tracer overhead at 64 "
      "ranks (bit-identity enforced) and ranks/s + bytes/rank scaling "
      "curves to 4096 ranks");
  args.add_int("ranks", 64, "MPI ranks for the overhead measurement");
  args.add_int("steps", 200, "modeled-fidelity convolution time-steps");
  args.add_int("full-steps", 30, "full-fidelity time-steps");
  args.add_int("full-size", 768, "full-fidelity image edge (square)");
  args.add_int("reps", 3, "repetitions (best CPU time is reported)");
  args.add_string("scale-ranks", "64,256,1024,4096",
                  "comma list of rank counts for the scaling curve "
                  "(up to 65536)");
  args.add_int("scale-steps", 10, "time-steps per scaling point");
  args.add_string("init-ranks", "1024,4096,16384,65536",
                  "comma list of rank counts for the Session-init curve");
  args.add_int("funnel-ranks", 16384,
               "rank count for the hashed-vs-legacy matching funnel "
               "(0 = skip)");
  args.add_flag("quick", "reduced run for smoke testing");
  args.add_flag("no-enforce",
                "report the overhead bar without failing on it "
                "(bit-identity always enforced)");
  args.add_string("json_out", "", "write BENCH_obs.json here");
  args.add_string("scale_out", "", "write BENCH_scale.json here");
  if (!args.parse(argc, argv)) return 1;

  const int nranks = static_cast<int>(args.get_int("ranks"));
  Workload modeled{5616, 3744, static_cast<int>(args.get_int("steps")),
                   false};
  const int edge = static_cast<int>(args.get_int("full-size"));
  Workload full{edge, edge, static_cast<int>(args.get_int("full-steps")),
                true};
  int reps = static_cast<int>(args.get_int("reps"));
  int scale_steps = static_cast<int>(args.get_int("scale-steps"));
  std::vector<int> scale_ranks;
  for (const auto& tok : support::split(args.get_string("scale-ranks"), ',')) {
    const int p = std::atoi(tok.c_str());
    if (p > 0) scale_ranks.push_back(p);
  }
  std::vector<int> init_ranks;
  for (const auto& tok : support::split(args.get_string("init-ranks"), ',')) {
    const int p = std::atoi(tok.c_str());
    if (p > 0) init_ranks.push_back(p);
  }
  int funnel_ranks = static_cast<int>(args.get_int("funnel-ranks"));
  if (args.get_flag("quick")) {
    modeled.steps = 20;
    full.steps = 4;
    full.width = full.height = 256;
    reps = 1;
    scale_steps = 2;
    scale_ranks = {64, 256};
    init_ranks = {1024, 4096};
    funnel_ranks = std::min(funnel_ranks, 1024);
  }
  const std::uint64_t seed = 0xC0FFEE;

  print_banner("Self-observability overhead & scaling",
               "observing the simulator must not change the simulation",
               std::to_string(nranks) + " ranks overhead, best of " +
                   std::to_string(reps) + "; scale to " +
                   std::to_string(scale_ranks.empty()
                                      ? 0
                                      : scale_ranks.back()) +
                   " ranks");

  // ---- overhead: full fidelity is the acceptance number -------------------
  Measurement full_off, full_on;
  if (!measure(nranks, full, seed, reps, full_off, full_on)) return 1;
  const double full_oh = overhead_pct(full_off, full_on);
  std::printf("\nfull fidelity (%dx%d, %d steps — real stencil work):\n",
              full.width, full.height, full.steps);
  std::printf("  tracing off: %9.3f ms cpu (%8.3f ms wall)\n",
              full_off.cpu_s * 1e3, full_off.wall_s * 1e3);
  std::printf("  tracing on:  %9.3f ms cpu (%8.3f ms wall, %llu spans)\n",
              full_on.cpu_s * 1e3, full_on.wall_s * 1e3,
              static_cast<unsigned long long>(full_on.spans));
  const bool bar_ok = full_oh < 2.0;
  std::printf("  overhead:    %+.2f%% cpu (target < 2%%)  %s\n", full_oh,
              bar_ok ? "PASS" : "ABOVE TARGET");

  Measurement mod_off, mod_on;
  if (!measure(nranks, modeled, seed, reps, mod_off, mod_on)) return 1;
  std::printf("\nmodeled fidelity (%dx%d, %d steps — hollow baseline, "
              "diagnostic only):\n",
              modeled.width, modeled.height, modeled.steps);
  std::printf("  tracing off: %9.3f ms cpu\n", mod_off.cpu_s * 1e3);
  std::printf("  tracing on:  %9.3f ms cpu (%+.2f%%, %llu spans)\n",
              mod_on.cpu_s * 1e3, overhead_pct(mod_off, mod_on),
              static_cast<unsigned long long>(mod_on.spans));
  std::printf("\nperturbation: none — per-rank virtual times bit-identical "
              "in both modes\n");

  BenchJson json("nehalem-cluster", seed);
  json.add("obs/full_fidelity/tracing_off", full_off.wall_s,
           {{"cpu_time_s", full_off.cpu_s},
            {"virtual_makespan_s", full_off.virtual_s}});
  json.add("obs/full_fidelity/tracing_on", full_on.wall_s,
           {{"cpu_time_s", full_on.cpu_s},
            {"virtual_makespan_s", full_on.virtual_s},
            {"spans", static_cast<double>(full_on.spans)},
            {"overhead_pct", full_oh}});
  json.add("obs/modeled/tracing_off", mod_off.wall_s,
           {{"cpu_time_s", mod_off.cpu_s}});
  json.add("obs/modeled/tracing_on", mod_on.wall_s,
           {{"cpu_time_s", mod_on.cpu_s},
            {"spans", static_cast<double>(mod_on.spans)},
            {"overhead_pct", overhead_pct(mod_off, mod_on)}});
  if (!json.write(args.get_string("json_out"))) return 1;

  // ---- scaling curve: ranks/s and bytes/rank vs p -------------------------
  // One fixed 4096-row grid split across ever more ranks (strong scaling;
  // RowDecomposition requires nranks <= height). Tracing stays on: the
  // curve is the cost of the observed simulator, the thing CI floors.
  std::printf("\nscaling (256 x max(4096,p) grid, %d steps, tracing on):\n",
              scale_steps);
  std::printf("  %6s %12s %14s %12s\n", "p", "wall ms", "ranks/s",
              "bytes/rank");
  BenchJson scale_json("nehalem-cluster", seed);
  for (const int p : scale_ranks) {
    const Workload w{256, std::max(4096, p), scale_steps, false};
    const Measurement m = run_once(p, w, seed, /*traced=*/true);
    const double ranks_per_s =
        m.wall_s > 0.0 ? static_cast<double>(p) / m.wall_s : 0.0;
    std::printf("  %6d %12.3f %14.0f %12.0f\n", p, m.wall_s * 1e3,
                ranks_per_s, m.bytes_per_rank);
    scale_json.add("obs/scale/p:" + std::to_string(p), m.wall_s,
                   {{"ranks", static_cast<double>(p)},
                    {"ranks_per_s", ranks_per_s},
                    {"bytes_per_rank", m.bytes_per_rank},
                    {"virtual_makespan_s", m.virtual_s},
                    {"spans", static_cast<double>(m.spans)}});
  }

  // ---- Session init: lazy world construction ----------------------------
  std::printf("\nworld construction (no run — ctor cost only):\n");
  std::printf("  %6s %14s\n", "p", "lazy ms");
  for (const int p : init_ranks) {
    const double lazy_s = init_lazy_s(p);
    std::printf("  %6d %14.3f\n", p, lazy_s * 1e3);
    scale_json.add("obs/init/p:" + std::to_string(p), lazy_s,
                   {{"ranks", static_cast<double>(p)},
                    {"init_lazy_s", lazy_s}});
  }

  // ---- matching engines: hashed vs legacy on the O(p^2) funnel -----------
  bool match_ok = true;
  if (funnel_ranks > 1) {
    const FunnelResult hashed = funnel_once(funnel_ranks, "hashed");
    const FunnelResult legacy = funnel_once(funnel_ranks, "legacy");
    if (hashed.final_times != legacy.final_times) {
      std::fprintf(stderr,
                   "FAIL: hashed and legacy matching disagree on virtual "
                   "time at p=%d\n",
                   funnel_ranks);
      return 1;
    }
    const double speedup =
        hashed.wall_s > 0.0 ? legacy.wall_s / hashed.wall_s : 0.0;
    const double hashed_rps =
        hashed.wall_s > 0.0 ? funnel_ranks / hashed.wall_s : 0.0;
    const double legacy_rps =
        legacy.wall_s > 0.0 ? funnel_ranks / legacy.wall_s : 0.0;
    std::printf("\nmatching funnel (p=%d, %d descending-source receives):\n",
                funnel_ranks, funnel_ranks - 1);
    std::printf("  hashed: %9.3f ms (%12.0f ranks/s)\n", hashed.wall_s * 1e3,
                hashed_rps);
    std::printf("  legacy: %9.3f ms (%12.0f ranks/s)\n", legacy.wall_s * 1e3,
                legacy_rps);
    match_ok = funnel_ranks < 16384 || speedup >= 2.0;
    std::printf("  hashed speedup: %.1fx%s  %s\n", speedup,
                funnel_ranks >= 16384 ? " (target >= 2x)" : "",
                match_ok ? "PASS" : "BELOW TARGET");
    std::printf("  virtual times bit-identical across engines\n");
    scale_json.add("obs/funnel/p:" + std::to_string(funnel_ranks),
                   hashed.wall_s,
                   {{"ranks", static_cast<double>(funnel_ranks)},
                    {"legacy_time_s", legacy.wall_s},
                    {"hashed_ranks_per_s", hashed_rps},
                    {"legacy_ranks_per_s", legacy_rps},
                    {"hashed_speedup", speedup}});
  }
  if (!scale_json.write(args.get_string("scale_out"))) return 1;

  if (!match_ok && !args.get_flag("no-enforce")) {
    std::fprintf(stderr,
                 "FAIL: hashed matching below the 2x funnel bar at p=%d\n",
                 funnel_ranks);
    return 1;
  }
  if (!bar_ok && !args.get_flag("no-enforce")) {
    std::fprintf(stderr,
                 "FAIL: self-trace overhead %.2f%% exceeds the 2%% bar\n",
                 full_oh);
    return 1;
  }
  return 0;
}
