// The cooperative rank scheduler: differential equivalence against the
// thread-per-rank backend (virtual time is a pure function of program
// order + seeded draws, never of scheduling), worker-count independence,
// scale (256 ranks on a fixed worker pool), exact deadlock quiescence,
// and the max-accumulator / multi-run lifecycle fixes that rode along.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/collsync.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/scheduler.hpp"
#include "profiler/section_profiler.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeline.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace mpisect;
using mpisim::Comm;
using mpisim::Ctx;
using mpisim::Err;
using mpisim::ExecBackend;
using mpisim::MachineModel;
using mpisim::MpiError;
using mpisim::World;
using mpisim::WorldOptions;

WorldOptions nehalem_options(ExecBackend exec, int workers = 0) {
  WorldOptions opts;
  opts.machine = MachineModel::nehalem_cluster();
  opts.start_skew_sigma = 1e-4;  // exercise the seeded jitter draws
  opts.exec = {.backend = exec, .workers = workers};
  return opts;
}

apps::conv::ConvolutionConfig conv_config(int steps) {
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 96;
  cfg.height = 64;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  return cfg;
}

struct ConvRun {
  std::vector<double> final_times;
  std::vector<profiler::SectionProfiler::SectionTotals> profile;
  std::vector<std::uint8_t> trace_bytes;
  std::string telemetry_csv;
};

ConvRun run_convolution(ExecBackend exec, int workers = 0, int ranks = 8) {
  World world(ranks, nehalem_options(exec, workers));
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
  // All four PMPI tools stacked; the sampled series must be a pure
  // function of per-rank program order, like everything else compared
  // below.
  telemetry::SamplerOptions sopts;
  sopts.dt = 1e-3;
  auto sampler = telemetry::TelemetrySampler::install(world, sopts);
  apps::conv::ConvolutionApp app(conv_config(10));
  world.run(std::ref(app));
  const telemetry::Timeline tl = telemetry::build_timeline(*sampler);
  return ConvRun{world.final_times(), prof.totals(), rec->finish().encode(),
                 telemetry::timeline_csv(tl)};
}

TEST(Scheduler, DefaultBackendIsCooperative) {
  World world(2, WorldOptions{});
  EXPECT_STREQ(world.executor().backend_name(), "cooperative");
  World threads(2, nehalem_options(ExecBackend::Threads));
  EXPECT_STREQ(threads.executor().backend_name(), "threads");
}

// The property the whole trace/replay layer depends on: both backends
// produce bit-identical virtual time, per-section profiles, and trace
// bytes for the same seed.
TEST(Scheduler, DifferentialConvolutionBitIdentical) {
  const ConvRun coop = run_convolution(ExecBackend::Cooperative, 4);
  const ConvRun thr = run_convolution(ExecBackend::Threads);

  ASSERT_EQ(coop.final_times.size(), thr.final_times.size());
  for (std::size_t r = 0; r < coop.final_times.size(); ++r) {
    EXPECT_EQ(coop.final_times[r], thr.final_times[r]) << "rank " << r;
  }

  ASSERT_EQ(coop.profile.size(), thr.profile.size());
  for (std::size_t i = 0; i < coop.profile.size(); ++i) {
    EXPECT_EQ(coop.profile[i].label, thr.profile[i].label);
    EXPECT_EQ(coop.profile[i].instances, thr.profile[i].instances);
    EXPECT_EQ(coop.profile[i].total_time, thr.profile[i].total_time)
        << coop.profile[i].label;
    EXPECT_EQ(coop.profile[i].mpi_time, thr.profile[i].mpi_time)
        << coop.profile[i].label;
  }

  EXPECT_EQ(coop.trace_bytes, thr.trace_bytes)
      << "recorded .mpst bytes must not depend on the scheduler";
  EXPECT_EQ(coop.telemetry_csv, thr.telemetry_csv)
      << "exported telemetry series must not depend on the scheduler";
}

TEST(Scheduler, DifferentialLuleshBitIdentical) {
  auto run = [](ExecBackend exec) {
    World world(8, nehalem_options(exec));
    sections::SectionRuntime::install(world);
    apps::lulesh::LuleshConfig cfg;
    cfg.s = 4;
    cfg.steps = 3;
    apps::lulesh::LuleshApp app(cfg);
    world.run(std::ref(app));
    return std::make_pair(world.final_times(), app.result().total_energy());
  };
  const auto coop = run(ExecBackend::Cooperative);
  const auto thr = run(ExecBackend::Threads);
  ASSERT_EQ(coop.first.size(), thr.first.size());
  for (std::size_t r = 0; r < coop.first.size(); ++r) {
    EXPECT_EQ(coop.first[r], thr.first[r]) << "rank " << r;
  }
  EXPECT_EQ(coop.second, thr.second);
}

// Virtual time must also be independent of how many workers multiplex the
// fibers — 1 worker serializes every rank, 4 interleave them.
TEST(Scheduler, WorkerCountDoesNotAffectVirtualTime) {
  const ConvRun one = run_convolution(ExecBackend::Cooperative, 1);
  const ConvRun four = run_convolution(ExecBackend::Cooperative, 4);
  EXPECT_EQ(one.final_times, four.final_times);
  EXPECT_EQ(one.trace_bytes, four.trace_bytes);
  EXPECT_EQ(one.telemetry_csv, four.telemetry_csv);
}

// Paper-scale world on a fixed worker pool: 256 ranks was impractical with
// one OS thread per rank; the fiber scheduler runs it as a unit test.
TEST(Scheduler, ConvolutionScalesTo256Ranks) {
  World world(256, nehalem_options(ExecBackend::Cooperative));
  sections::SectionRuntime::install(world);
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 512;
  cfg.height = 512;
  cfg.steps = 3;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  EXPECT_GT(world.elapsed(), 0.0);
  EXPECT_EQ(world.final_times().size(), 256u);
}

TEST(Scheduler, ResolveWorkersHonorsEnvironment) {
  EXPECT_EQ(mpisim::resolve_workers(5), 5);
  ::setenv("MPISECT_WORKERS", "3", 1);
  EXPECT_EQ(mpisim::resolve_workers(0), 3);
  EXPECT_EQ(mpisim::resolve_workers(7), 7);  // explicit beats env
  ::unsetenv("MPISECT_WORKERS");
  EXPECT_GE(mpisim::resolve_workers(0), 1);
}

// Head-to-head receives with no checker attached: the scheduler itself
// proves quiescence (every rank parked, no wake pending) and aborts —
// deterministic, no watchdog timeout involved.
TEST(Scheduler, QuiescenceAbortsDeadlockedWorld) {
  for (const ExecBackend exec :
       {ExecBackend::Cooperative, ExecBackend::Threads}) {
    World world(2, nehalem_options(exec));
    bool aborted = false;
    try {
      world.run([](Ctx& ctx) {
        Comm comm = ctx.world_comm();
        std::array<char, 4> buf{};
        comm.recv(buf.data(), buf.size(), 1 - comm.rank(), 0);
      });
    } catch (const MpiError& err) {
      aborted = err.code() == Err::Aborted;
    }
    EXPECT_TRUE(aborted) << world.executor().backend_name();
    EXPECT_TRUE(world.aborted());
  }
}

// elapsed() seeds with -infinity: a run whose clocks end up negative (here
// via exact negative compute, in practice via replay rescaling) must not
// report a clamped 0.0 makespan.
TEST(Scheduler, ElapsedHandlesNegativeFinalTimes) {
  World world(2, WorldOptions{});
  world.run([](Ctx& ctx) { ctx.clock().reset(-2.0 - ctx.rank()); });
  EXPECT_DOUBLE_EQ(world.elapsed(), -2.0);
}

// Same fix inside CollSync: the round's max-entry-time must not clamp
// negative virtual times to 0.0.
TEST(Scheduler, CollSyncMaxEntryHandlesNegativeTimes) {
  auto exec = mpisim::make_executor({.backend = ExecBackend::Threads});
  std::atomic<bool> abort{false};
  mpisim::CollSync<int> sync(2, *exec, &abort);
  double max0 = 0.0;
  std::thread peer([&] {
    auto [values, t_max] = sync.exchange(0, 1, -3.0, 11);
    (void)values;
    (void)t_max;
  });
  auto [values, t_max] = sync.exchange(0, 0, -5.0, 7);
  peer.join();
  max0 = t_max;
  EXPECT_DOUBLE_EQ(max0, -3.0);
  EXPECT_EQ(values[0], 7);
  EXPECT_EQ(values[1], 11);
}

// Repeated World::run builds a fresh world communicator; the previous one
// must get its on_comm_free so comm-lifecycle accounting stays paired.
TEST(Scheduler, MultiRunEmitsWorldCommFree) {
  World world(2, WorldOptions{});
  std::vector<int> created;
  std::vector<std::pair<int, int>> freed;  // (rank, context)
  std::mutex mu;
  world.hooks().on_comm_create = [&](Ctx&, const mpisim::CommLifecycle& info) {
    const std::lock_guard lock(mu);
    created.push_back(info.context);
  };
  world.hooks().on_comm_free = [&](Ctx& ctx, int context) {
    const std::lock_guard lock(mu);
    freed.emplace_back(ctx.rank(), context);
  };

  auto noop = [](Ctx& ctx) { ctx.compute_exact(1.0); };
  world.run(noop);
  ASSERT_EQ(created.size(), 2u);
  const int first_context = created.front();
  EXPECT_TRUE(freed.empty());  // comm still alive between runs

  world.run(noop);
  ASSERT_EQ(freed.size(), 2u);
  for (const auto& [rank, context] : freed) {
    EXPECT_EQ(context, first_context);
  }
  EXPECT_EQ(created.size(), 4u);
  EXPECT_NE(created.back(), first_context);
}

// A failed second run must not leave the first run's final times behind.
TEST(Scheduler, FailedRunClearsFinalTimes) {
  World world(2, WorldOptions{});
  world.run([](Ctx& ctx) { ctx.compute_exact(1.0); });
  for (const double t : world.final_times()) EXPECT_DOUBLE_EQ(t, 1.0);

  EXPECT_THROW(world.run([](Ctx&) {
    throw std::runtime_error("rank failure");
  }),
               std::runtime_error);
  for (const double t : world.final_times()) EXPECT_DOUBLE_EQ(t, 0.0);
}

}  // namespace
