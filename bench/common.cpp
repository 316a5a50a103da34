#include "common.hpp"

#include <cmath>
#include <cstdio>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/session.hpp"
#include "profiler/section_profiler.hpp"
#include "support/provenance.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

namespace mpisect::bench {
namespace {

/// One profiled execution of an SPMD app; folds results into `point`.
template <typename AppFactory>
void accumulate_run(int nranks, const mpisim::MachineModel& machine,
                    std::uint64_t seed, AppFactory&& make_app,
                    std::map<std::string, support::RunningStats>& per_process,
                    std::map<std::string, support::RunningStats>& total,
                    std::map<std::string, support::RunningStats>& mpi_time,
                    support::RunningStats& walltime,
                    const mpisim::faults::FaultPlan& faults = {},
                    const std::string& exec = "cooperative") {
  const auto world_ptr = mpisim::Session(nranks)
                             .world_builder()
                             .machine(machine)
                             .seed(seed)
                             .faults(faults)
                             .exec_spec(exec)
                             .build();
  mpisim::World& world = *world_ptr;
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world);
  auto app = make_app();
  world.run(std::ref(*app));
  walltime.add(world.elapsed());
  for (const auto& t : prof.totals()) {
    per_process[t.label].add(t.mean_per_process);
    total[t.label].add(t.total_time);
    mpi_time[t.label].add(t.ranks_seen ? t.mpi_time / t.ranks_seen : 0.0);
  }
}

RunPoint finalize(const std::map<std::string, support::RunningStats>& pp,
                  const std::map<std::string, support::RunningStats>& tot,
                  const std::map<std::string, support::RunningStats>& mpi,
                  const support::RunningStats& wall) {
  RunPoint point;
  point.walltime = wall.mean();
  point.walltime_stddev = wall.stddev();
  for (const auto& [label, st] : pp) point.per_process[label] = st.mean();
  for (const auto& [label, st] : tot) point.total[label] = st.mean();
  for (const auto& [label, st] : mpi) point.mpi_time[label] = st.mean();
  return point;
}

}  // namespace

RunPoint run_convolution_point(int nranks, const ConvolutionSweepOptions& o) {
  std::map<std::string, support::RunningStats> pp;
  std::map<std::string, support::RunningStats> tot;
  std::map<std::string, support::RunningStats> mpi;
  support::RunningStats wall;
  for (int rep = 0; rep < o.reps; ++rep) {
    const std::uint64_t seed =
        support::stream_id(o.seed, static_cast<std::uint64_t>(nranks),
                           static_cast<std::uint64_t>(rep));
    accumulate_run(
        nranks, o.machine, seed,
        [&] {
          apps::conv::ConvolutionConfig cfg;
          cfg.width = o.width;
          cfg.height = o.height;
          cfg.steps = o.steps;
          cfg.full_fidelity = false;
          return std::make_unique<apps::conv::ConvolutionApp>(cfg);
        },
        pp, tot, mpi, wall, o.faults, o.exec);
  }
  return finalize(pp, tot, mpi, wall);
}

RunPoint run_lulesh_point(int nranks, const LuleshRunOptions& o) {
  std::map<std::string, support::RunningStats> pp;
  std::map<std::string, support::RunningStats> tot;
  std::map<std::string, support::RunningStats> mpi;
  support::RunningStats wall;
  for (int rep = 0; rep < o.reps; ++rep) {
    const std::uint64_t seed = support::stream_id(
        o.seed, static_cast<std::uint64_t>(nranks),
        support::stream_id(static_cast<std::uint64_t>(o.omp_threads),
                           static_cast<std::uint64_t>(rep)));
    accumulate_run(
        nranks, o.machine, seed,
        [&] {
          apps::lulesh::LuleshConfig cfg;
          cfg.s = o.s;
          cfg.steps = o.steps;
          cfg.omp_threads = o.omp_threads;
          cfg.schedule = o.schedule;
          cfg.full_fidelity = false;
          return std::make_unique<apps::lulesh::LuleshApp>(cfg);
        },
        pp, tot, mpi, wall, {}, o.exec);
  }
  return finalize(pp, tot, mpi, wall);
}

speedup::BoundAnalysis make_bound_analysis(
    const std::map<int, RunPoint>& sweep,
    const std::vector<std::string>& labels) {
  const auto seq = sweep.find(1);
  const double t_seq = seq != sweep.end() ? seq->second.walltime : 0.0;
  speedup::BoundAnalysis analysis(t_seq);
  for (const auto& label : labels) {
    speedup::SectionScaling s;
    s.label = label;
    for (const auto& [p, point] : sweep) {
      const auto it = point.per_process.find(label);
      if (it == point.per_process.end() || it->second <= 0.0) continue;
      s.per_process.add(p, it->second);
      const auto tt = point.total.find(label);
      s.total.add(p, tt != point.total.end() ? tt->second : it->second * p);
    }
    analysis.add_section(s);
  }
  return analysis;
}

speedup::ScalingSeries section_series(const std::map<int, RunPoint>& sweep,
                                      const std::string& label) {
  speedup::ScalingSeries out(label);
  for (const auto& [p, point] : sweep) {
    const auto it = point.per_process.find(label);
    if (it != point.per_process.end()) out.add(p, it->second);
  }
  return out;
}

speedup::ScalingSeries walltime_series(const std::map<int, RunPoint>& sweep) {
  speedup::ScalingSeries out("walltime");
  for (const auto& [p, point] : sweep) out.add(p, point.walltime);
  return out;
}

void print_banner(const std::string& experiment, const std::string& paper_ref,
                  const std::string& protocol) {
  std::printf("============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("protocol:   %s\n", protocol.c_str());
  std::printf("============================================================\n");
}

BenchJson::BenchJson(std::string machine, std::uint64_t seed)
    : machine_(std::move(machine)), seed_(seed) {}

void BenchJson::add(const std::string& name, double real_time_s,
                    const std::map<std::string, double>& counters) {
  entries_.push_back({name, real_time_s, counters});
}

std::string BenchJson::str() const {
  auto prov = support::build_provenance();
  prov.machine = machine_;
  prov.seed = std::to_string(seed_);
  std::string out = "{\n  \"context\": ";
  out += support::provenance_json(prov);
  out += ",\n  \"benchmarks\": [";
  bool first = true;
  for (const auto& e : entries_) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"name\": \"" + e.name + "\", \"run_type\": \"iteration\"";
    out += ", \"iterations\": 1";
    out += ", \"real_time\": " + support::fmt_double(e.real_time, 9);
    out += ", \"cpu_time\": " + support::fmt_double(e.real_time, 9);
    out += ", \"time_unit\": \"s\"";
    for (const auto& [key, value] : e.counters) {
      out += ", \"" + key + "\": " + support::fmt_double(value, 9);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool BenchJson::write(const std::string& path) const {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string body = str();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
  else std::printf("bench: wrote %s\n", path.c_str());
  return ok;
}

}  // namespace mpisect::bench
