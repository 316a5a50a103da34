// Adaptive parallelism restraint (paper Sec. 8 future work): advisor math
// and the mini-Lulesh per-phase team plumbing.
#include <gtest/gtest.h>

#include "apps/lulesh/lulesh.hpp"
#include "core/sections/runtime.hpp"
#include "core/speedup/adaptive.hpp"
#include "profiler/section_profiler.hpp"

namespace {

using namespace mpisect;
using namespace mpisect::speedup;

ScalingSeries series_of(const char* name,
                        std::initializer_list<std::pair<int, double>> pts) {
  ScalingSeries s(name);
  for (const auto& [p, t] : pts) s.add(p, t);
  return s;
}

TEST(Advisor, EmptyAdvisor) {
  const AdaptiveAdvisor advisor;
  EXPECT_FALSE(advisor.best_uniform().has_value());
  EXPECT_FALSE(advisor.predicted_uniform(4).has_value());
  EXPECT_DOUBLE_EQ(advisor.improvement(), 1.0);
  EXPECT_TRUE(advisor.recommend().empty());
}

TEST(Advisor, UniformPredictionSumsSections) {
  AdaptiveAdvisor advisor;
  advisor.add_section(series_of("a", {{1, 10.0}, {2, 6.0}, {4, 5.0}}));
  advisor.add_section(series_of("b", {{1, 8.0}, {2, 5.0}, {4, 7.0}}));
  EXPECT_DOUBLE_EQ(*advisor.predicted_uniform(1), 18.0);
  EXPECT_DOUBLE_EQ(*advisor.predicted_uniform(2), 11.0);
  EXPECT_DOUBLE_EQ(*advisor.predicted_uniform(4), 12.0);
  EXPECT_FALSE(advisor.predicted_uniform(8).has_value());  // unsampled
  EXPECT_EQ(*advisor.best_uniform(), 2);
}

TEST(Advisor, RecommendsPerSectionOptima) {
  AdaptiveAdvisor advisor;
  // a peaks at 4, b peaks at 1: a uniform team must compromise (best
  // uniform is t=2: 6+5=11 < t=1: 14 < t=4: 13).
  advisor.add_section(series_of("a", {{1, 10.0}, {2, 6.0}, {4, 4.0}}));
  advisor.add_section(series_of("b", {{1, 4.0}, {2, 5.0}, {4, 9.0}}));
  EXPECT_EQ(*advisor.best_uniform(), 2);
  const auto recs = advisor.recommend();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].label, "a");
  EXPECT_EQ(recs[0].threads, 4);
  EXPECT_FALSE(recs[0].restrained);  // at/above the uniform choice
  EXPECT_EQ(recs[1].threads, 1);
  EXPECT_TRUE(recs[1].restrained);   // capped below uniform
  // adaptive = 4 + 4 = 8 < best uniform 11.
  EXPECT_DOUBLE_EQ(advisor.predicted_adaptive(), 8.0);
  EXPECT_DOUBLE_EQ(advisor.improvement(), 11.0 / 8.0);
}

TEST(Advisor, NeverWorseThanUniformInModel) {
  // Property: for any section shapes, adaptive <= best uniform.
  for (int scenario = 0; scenario < 30; ++scenario) {
    AdaptiveAdvisor advisor;
    for (int sec = 0; sec < 3; ++sec) {
      ScalingSeries s(std::string("s").append(std::to_string(sec)));
      for (const int t : {1, 2, 4, 8, 16}) {
        const double noise =
            ((scenario * 7919 + sec * 104729 + t * 31) % 100) / 100.0;
        s.add(t, 10.0 / t + noise * t * 0.3);
      }
      advisor.add_section(std::move(s));
    }
    EXPECT_GE(advisor.improvement(), 1.0 - 1e-12) << "scenario " << scenario;
  }
}

TEST(LuleshRestraint, PerPhaseTeamsChangeOnlyTheirPhases) {
  auto run_cfg = [](int base, int nodal, int elems) {
    mpisim::WorldOptions opts;
    opts.machine = mpisim::MachineModel::knl();
    opts.machine.compute_noise_sigma = 0.0;
    mpisim::World world(1, opts);
    sections::SectionRuntime::install(world);
    profiler::SectionProfiler prof(world);
    apps::lulesh::LuleshConfig cfg;
    cfg.s = 12;
    cfg.steps = 5;
    cfg.omp_threads = base;
    cfg.nodal_threads = nodal;
    cfg.element_threads = elems;
    cfg.full_fidelity = false;
    apps::lulesh::LuleshApp app(cfg);
    world.run(std::ref(app));
    return std::pair{prof.totals_for("LagrangeNodal").mean_per_process,
                     prof.totals_for("LagrangeElements").mean_per_process};
  };
  const auto [nodal_base, elems_base] = run_cfg(8, 0, 0);
  const auto [nodal_restrained, elems_same] = run_cfg(8, 2, 0);
  // Restraining nodal to 2 threads slows ONLY the nodal phase (2 < optimum
  // here); elements keep the 8-thread time.
  EXPECT_GT(nodal_restrained, nodal_base * 1.5);
  EXPECT_NEAR(elems_same, elems_base, elems_base * 1e-9);
  const auto [nodal_same2, elems_boosted] = run_cfg(2, 2, 16);
  EXPECT_NEAR(nodal_same2, nodal_restrained, nodal_restrained * 1e-9);
  EXPECT_LT(elems_boosted, elems_base);  // 16 > 8 threads helps here
}

}  // namespace
