// sim-16k: the modeled-fidelity convolution at 16,384 ranks on the
// nehalem_cluster model, SectionRuntime only, cooperative executor with
// one worker per CPU. World::run is repeated on one world; the cold first
// run (fresh fiber-stack slabs) is part of set-up.
//
// Output check: every run's per-rank final virtual times are bit-identical
// to the cold run's, and to a reference run of the same seed on a
// single-worker executor. Their digest is printed for run.py to compare
// with the stored digest of the seed.
#include <functional>
#include <memory>

#include "apps/convolution/convolution.hpp"
#include "bench.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/error.hpp"
#include "mpisim/session.hpp"
#include "obs/spans.hpp"

namespace perfbench {

namespace {

using namespace mpisect;

constexpr int kRanks = 16384;
constexpr int kHeight = 16384;
constexpr int kSteps = 10;
constexpr int kSetups = 3;
constexpr double kRankSteps = static_cast<double>(kRanks) * kSteps;

struct Inputs {
  int width = 256;
  std::uint64_t world_seed = 0;
};

/// The seed picks the world's RNG seed and the image width from a narrow
/// band around 256 columns (halo bytes change, the message pattern and the
/// modeled work per rank-step do not).
Inputs make_inputs(std::uint64_t seed) {
  SeedStream s(seed ^ 0x516D16BULL);
  Inputs in;
  in.width = 248 + 2 * static_cast<int>(s.below(9));
  in.world_seed = s.next();
  return in;
}

std::unique_ptr<mpisim::World> build_world(const Inputs& in, int workers,
                                            SpanLog& log, double* build_s) {
  std::unique_ptr<mpisim::World> world;
  const double dt = timed(log, "mpisim.WorldBuilder::build", [&] {
    world = mpisim::Session(kRanks)
                .world_builder()
                .machine(mpisim::MachineModel::nehalem_cluster())
                .seed(in.world_seed)
                .exec(mpisim::ExecModel{mpisim::ExecBackend::Cooperative,
                                        workers, 0})
                .build();
  });
  if (build_s != nullptr) *build_s = dt;
  sections::SectionRuntime::install(*world);
  return world;
}

/// One World::run of the convolution; returns wall seconds.
double run_once(mpisim::World& world, const Inputs& in, SpanLog& log) {
  apps::conv::ConvolutionConfig cfg;
  cfg.width = in.width;
  cfg.height = kHeight;
  cfg.steps = kSteps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  return timed(log, "mpisim.World::run", [&] { world.run(std::ref(app)); });
}

}  // namespace

void run_sim_16k(const Options& opt, Result& r) {
  const Inputs in = make_inputs(opt.seed);
  const int workers = nproc();
  SpanLog log(opt.trace);
  r.note("sim-16k: " + std::to_string(kRanks) + " ranks, " +
         std::to_string(in.width) + "x" + std::to_string(kHeight) +
         " grid, " + std::to_string(kSteps) + " steps, " +
         std::to_string(workers) + " workers");

  // Set-up: build + cold run, several times on fresh worlds; keep the last.
  std::vector<double> setup, build_s;
  std::unique_ptr<mpisim::World> world;
  std::uint64_t digest = 0;
  double first_rss = 0.0;  ///< one world built, one cold run
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    const double t0 = now_s();
    double b = 0.0;
    world = build_world(in, workers, log, &b);
    run_once(*world, in, log);
    setup.push_back(now_s() - t0);
    build_s.push_back(b);
    const std::uint64_t d = digest_doubles(world->final_times());
    if (i == 0) {
      digest = d;
      first_rss = peak_rss_mb();
    }
    if (d != digest) r.fail_check("final times differ between fresh worlds");
  }

  // Traced runs alternate with untraced ones on a second world that
  // carries the probes, so both see the same machine state.
  std::unique_ptr<mpisim::World> traced;
  std::unique_ptr<Probes> probes;
  if (opt.trace) {
    traced = build_world(in, workers, log, nullptr);
    probes = std::make_unique<Probes>(*traced);
    // Cold run, not sampled. It also differs in its tool events: the
    // world communicator it frees at the start of the next run was
    // announced before any tool was attached.
    run_once(*traced, in, log);
    probes->reset();
  }

  std::vector<double> runs, traced_s;
  std::vector<SchedDelta> sched;
  const std::size_t n = run_for(
      opt.seconds, kMinMedianSamples, kCapSeconds, [&] {
        ++r.attempted;
        try {
          runs.push_back(run_once(*world, in, log));
          if (digest_doubles(world->final_times()) != digest) {
            r.fail_check("final times differ across repetitions");
          }
          if (traced) {
            obs::set_timing(true);
            const SchedWatch watch;
            traced_s.push_back(run_once(*traced, in, log));
            sched.push_back(watch.delta());
            obs::set_timing(false);
            if (digest_doubles(traced->final_times()) != digest) {
              r.fail_check("probes changed virtual time");
            }
          }
        } catch (const mpisim::MpiError& e) {
          ++r.failed;
          r.note(std::string("run failed: ") + e.what());
          return false;
        }
        return true;
      });

  r.set("peak_rss_mb", first_rss);
  r.set("process.rss_growth_mb", peak_rss_mb() - first_rss);

  // Reference: the same seed on a single-worker executor must land on the
  // same per-rank virtual times, bit for bit.
  world.reset();
  {
    auto ref = build_world(in, 1, log, nullptr);
    run_once(*ref, in, log);
    if (digest_doubles(ref->final_times()) != digest) {
      r.fail_check("final times differ from the single-worker reference");
    }
  }
  note_digest(r, "final_times", digest);
  r.note("final times agree across " + std::to_string(n) +
         " repeats and a 1-worker reference");

  const double run_med = median(runs);
  r.set("setup_s", median(setup));
  r.set("work_per_s", kRankSteps / run_med);
  r.set("op_ms_p50", run_med * 1e3);
  r.note("rank_steps_per_s = " + std::to_string(kRankSteps / run_med) +
         " rank-steps/s (median of " + std::to_string(runs.size()) +
         " World::run)");
  r.set("mpisim.build_ms", median(build_s) * 1e3);
  if (traced) {
    const double traced_med = median(traced_s);
    r.set("mpisim.run_ns_per_rank_step", traced_med / kRankSteps * 1e9);
    set_sched_layers(r, sched, kRankSteps);
    r.set("mpisim.mem.bytes_per_rank", traced->mem_account().bytes_per_rank());
    r.set("mpisim.mem.stack_bytes_hwm",
          static_cast<double>(
              traced->executor().stats().stack_bytes_hwm.load()));
    set_world_layers(r, probes->total(), static_cast<double>(traced_s.size()),
                     kRankSteps);
    r.set("obs.trace_overhead_pct", (traced_med - run_med) / run_med * 100.0);
    probes.reset();
    traced.reset();
    log.write_chrome(opt.workdir + "/sim-16k.spans.json");
  }
}

}  // namespace perfbench
