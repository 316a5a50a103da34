// Profile snapshots: capture, CSV round-trip, and section-wise diffing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/sections/api.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "profiler/diff.hpp"

namespace {

using namespace mpisect;
using namespace mpisect::profiler;
using mpisim::Comm;
using mpisim::Ctx;
using mpisim::MachineModel;
using mpisim::World;
using mpisim::WorldOptions;

WorldOptions ideal_options() {
  WorldOptions opts;
  opts.machine = MachineModel::ideal();
  return opts;
}

ProfileSnapshot run_and_capture(double solve_seconds,
                                const std::string& name) {
  World world(2, ideal_options());
  sections::SectionRuntime::install(world);
  SectionProfiler prof(world);
  world.run([solve_seconds](Ctx& ctx) {
    Comm comm = ctx.world_comm();
    sections::MPIX_Section_enter(comm, "solve");
    ctx.compute_exact(solve_seconds);
    sections::MPIX_Section_exit(comm, "solve");
    sections::MPIX_Section_enter(comm, "io");
    ctx.compute_exact(0.5);
    sections::MPIX_Section_exit(comm, "io");
  });
  return ProfileSnapshot::capture(prof, name);
}

TEST(Snapshot, CaptureContainsSections) {
  const auto snap = run_and_capture(1.0, "base");
  EXPECT_EQ(snap.name(), "base");
  const auto* solve = snap.find("solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_NEAR(solve->mean_per_process, 1.0, 1e-9);
  EXPECT_EQ(solve->ranks, 2);
  EXPECT_EQ(snap.find("nonexistent"), nullptr);
}

TEST(Snapshot, CsvRoundTrip) {
  const auto snap = run_and_capture(2.0, "base");
  const std::string csv = snap.to_csv();
  const auto parsed = ProfileSnapshot::from_csv(csv, "reloaded");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->entries().size(), snap.entries().size());
  const auto* solve = parsed->find("solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_NEAR(solve->mean_per_process, 2.0, 1e-6);
  EXPECT_EQ(solve->instances, 1);
}

TEST(Snapshot, FromCsvRejectsGarbage) {
  EXPECT_FALSE(ProfileSnapshot::from_csv("not,a,snapshot\n1,2,3\n").has_value());
  EXPECT_FALSE(ProfileSnapshot::from_csv("").has_value());
  EXPECT_FALSE(
      ProfileSnapshot::from_csv("section,instances,ranks,mean_per_process,"
                                "mpi_time\nbad,row\n")
          .has_value());
}

TEST(Diff, IdentifiesTheMover) {
  const auto before = run_and_capture(4.0, "before");
  const auto after = run_and_capture(1.0, "after");  // solve got 4x faster
  const auto deltas = diff_profiles(before, after);
  ASSERT_FALSE(deltas.empty());
  // Biggest mover first; "solve" beats "io" (unchanged) and MPI_MAIN moves
  // by the same amount as solve, so both lead. Find solve explicitly.
  const auto solve =
      std::find_if(deltas.begin(), deltas.end(),
                   [](const SectionDelta& d) { return d.label == "solve"; });
  ASSERT_NE(solve, deltas.end());
  EXPECT_NEAR(solve->speedup, 4.0, 1e-6);
  EXPECT_NEAR(solve->abs_delta, -3.0, 1e-6);
  const auto io =
      std::find_if(deltas.begin(), deltas.end(),
                   [](const SectionDelta& d) { return d.label == "io"; });
  ASSERT_NE(io, deltas.end());
  EXPECT_NEAR(io->speedup, 1.0, 1e-6);
  // Sorted by |delta| descending.
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    EXPECT_GE(std::fabs(deltas[i - 1].abs_delta),
              std::fabs(deltas[i].abs_delta));
  }
}

TEST(Diff, HandlesAsymmetricSections) {
  ProfileSnapshot a("a");
  a.add({"common", 1, 2, 1.0, 0.0});
  a.add({"gone", 1, 2, 0.5, 0.0});
  ProfileSnapshot b("b");
  b.add({"common", 1, 2, 2.0, 0.0});
  b.add({"fresh", 1, 2, 0.25, 0.0});
  const auto deltas = diff_profiles(a, b);
  ASSERT_EQ(deltas.size(), 3u);
  for (const auto& d : deltas) {
    if (d.label == "gone") {
      EXPECT_TRUE(d.only_in_before);
      EXPECT_DOUBLE_EQ(d.speedup, 0.0);
    }
    if (d.label == "fresh") {
      EXPECT_TRUE(d.only_in_after);
    }
    if (d.label == "common") {
      EXPECT_DOUBLE_EQ(d.speedup, 0.5);  // got slower
      EXPECT_DOUBLE_EQ(d.abs_delta, 1.0);
    }
  }
  const std::string table = render_diff(deltas, "a", "b");
  EXPECT_NE(table.find("(removed)"), std::string::npos);
  EXPECT_NE(table.find("(new)"), std::string::npos);
  EXPECT_NE(table.find("0.50x"), std::string::npos);
}

TEST(Diff, RealisticWorkflowAcrossConfigurations) {
  // The intended use: same app, two thread counts, where did time move?
  auto profile_at = [](int threads) {
    WorldOptions opts;
    opts.machine = MachineModel::knl();
    opts.machine.compute_noise_sigma = 0.0;
    World world(1, opts);
    sections::SectionRuntime::install(world);
    SectionProfiler prof(world);
    apps::lulesh::LuleshConfig cfg;
    cfg.s = 12;
    cfg.steps = 3;
    cfg.omp_threads = threads;
    cfg.full_fidelity = false;
    apps::lulesh::LuleshApp app(cfg);
    world.run(std::ref(app));
    return ProfileSnapshot::capture(
        prof, std::string("t").append(std::to_string(threads)));
  };
  const auto t1 = profile_at(1);
  const auto t16 = profile_at(16);
  const auto deltas = diff_profiles(t1, t16);
  // Compute-heavy sections sped up; exchanges did not regress much.
  const auto stress = std::find_if(
      deltas.begin(), deltas.end(), [](const SectionDelta& d) {
        return d.label == "IntegrateStressForElems";
      });
  ASSERT_NE(stress, deltas.end());
  EXPECT_GT(stress->speedup, 3.0);
}

}  // namespace
