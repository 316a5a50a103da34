// Scheduler throughput microbenchmarks (google-benchmark): wall-clock cost
// of running a fixed seeded convolution world under the cooperative fiber
// backend vs the thread-per-rank reference, across rank counts and worker
// pool sizes. The ranks/s counter is the number BENCH_*.json tracks — the
// paper-scale worlds (64+ ranks, Table 7) are only practical when it stays
// roughly flat as ranks grow past the core count.
#include <benchmark/benchmark.h>

#include <functional>

#include "apps/convolution/convolution.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/session.hpp"

namespace {

using namespace mpisect;

mpisim::WorldOptions options(mpisim::ExecBackend exec, int workers) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.exec = {.backend = exec, .workers = workers};
  return opts;
}

void run_world(int ranks, const mpisim::WorldOptions& opts, int steps) {
  const auto world_ptr =
      mpisim::Session(ranks, opts).world_builder().build();
  mpisim::World& world = *world_ptr;
  sections::SectionRuntime::install(world);
  apps::conv::ConvolutionConfig cfg;
  cfg.width = 256;
  cfg.height = 256;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  benchmark::DoNotOptimize(world.elapsed());
}

void with_rank_counter(benchmark::State& state, int ranks) {
  state.counters["ranks_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(ranks),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          ranks);
}

/// Cooperative fiber scheduler, default worker pool. Sweep rank counts past
/// anything the thread backend can sensibly host on this container.
void BM_SchedulerCooperative(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto opts = options(mpisim::ExecBackend::Cooperative, 0);
  for (auto _ : state) run_world(ranks, opts, /*steps=*/10);
  with_rank_counter(state, ranks);
}
BENCHMARK(BM_SchedulerCooperative)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// Thread-per-rank reference: same work, one OS thread per virtual rank.
/// The 64-rank gap against BM_SchedulerCooperative/64 is the headline
/// speedup of the cooperative backend.
void BM_SchedulerThreads(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto opts = options(mpisim::ExecBackend::Threads, 0);
  for (auto _ : state) run_world(ranks, opts, /*steps=*/10);
  with_rank_counter(state, ranks);
}
BENCHMARK(BM_SchedulerThreads)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

/// Worker-pool sensitivity at a fixed 64-rank world: serialized (1 worker)
/// vs small pools. Virtual-time results are identical either way; only
/// wall-clock changes.
void BM_SchedulerWorkerSweep(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const auto opts = options(mpisim::ExecBackend::Cooperative, workers);
  for (auto _ : state) run_world(64, opts, /*steps=*/10);
  with_rank_counter(state, 64);
}
BENCHMARK(BM_SchedulerWorkerSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
