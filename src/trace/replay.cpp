#include "trace/replay.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "trace/walk.hpp"

namespace mpisect::trace {

namespace {

using SectionKey = std::pair<int, std::uint32_t>;

/// Replay's walk observer: per-rank section totals, per-instance spans
/// and the timeline, all in the what-if frame.
struct SectionObserver : WalkObserver {
  static constexpr bool kWhatIf = true;
  static constexpr const char* kWho = "replay";

  /// Per rank: (comm, label) -> (completed instances, inclusive seconds).
  using Totals = std::map<SectionKey, std::pair<std::uint64_t, double>>;

  const ReplayOptions& opt;
  ReplayResult& res;
  std::vector<Totals> per_rank;
  std::map<SectionKey, std::vector<std::vector<sections::RankSpan>>> spans;

  SectionObserver(const TraceFile& tf, const ReplayOptions& o,
                  ReplayResult& out)
      : opt(o), res(out), per_rank(tf.ranks.size()) {}

  void section_entered(int r, const OpenSection& s, std::size_t depth) {
    if (!opt.timeline) return;
    const Totals& totals = per_rank[static_cast<std::size_t>(r)];
    const auto it = totals.find({s.comm, s.label});
    const long k = it == totals.end() ? 0 : static_cast<long>(it->second.first);
    res.timeline.push_back(
        {s.t_in, r, s.comm, s.label, true, static_cast<int>(depth), k});
  }

  void section_exited(int r, const OpenSection& s, double t_out,
                      std::size_t depth) {
    auto& [count, inclusive] =
        per_rank[static_cast<std::size_t>(r)][{s.comm, s.label}];
    const auto k = static_cast<long>(count++);
    inclusive += t_out - s.t_in;
    if (opt.collect_metrics) {
      auto& per_instance = spans[{s.comm, s.label}];
      if (per_instance.size() <= static_cast<std::size_t>(k)) {
        per_instance.resize(static_cast<std::size_t>(k) + 1);
      }
      per_instance[static_cast<std::size_t>(k)].push_back({r, s.t_in, t_out});
    }
    if (opt.timeline) {
      res.timeline.push_back(
          {t_out, r, s.comm, s.label, false, static_cast<int>(depth), k});
    }
  }

  void finish() {
    // Per-rank totals in footer order (sorted by (comm, label)).
    res.rank_totals.resize(per_rank.size());
    for (std::size_t r = 0; r < per_rank.size(); ++r) {
      for (const auto& [key, val] : per_rank[r]) {
        res.rank_totals[r].push_back(
            SectionTotal{key.first, key.second, val.first, val.second});
      }
    }

    // Aggregate section statistics across ranks.
    std::map<SectionKey, ReplaySectionStat> stats;
    for (const auto& rt : res.rank_totals) {
      for (const auto& t : rt) {
        auto& s = stats[{t.comm, t.label}];
        s.comm = t.comm;
        s.label = t.label < res.labels.size()
                      ? res.labels[t.label]
                      : "label#" + std::to_string(t.label);
        ++s.ranks;
        s.instances += t.count;
        s.total_inclusive += t.inclusive;
      }
    }
    for (auto& [key, s] : stats) {
      s.mean_per_process = s.ranks > 0 ? s.total_inclusive / s.ranks : 0.0;
      if (opt.collect_metrics) {
        const auto it = spans.find(key);
        if (it != spans.end()) {
          // Ranks finish an instance in dependency order, not rank order;
          // sort so metric summation matches a rank-ordered profiler
          // bit for bit.
          for (auto& instance : it->second) {
            std::sort(instance.begin(), instance.end(),
                      [](const sections::RankSpan& a,
                         const sections::RankSpan& b) {
                        return a.rank < b.rank;
                      });
            if (!instance.empty()) {
              s.agg.add(sections::compute_metrics(instance));
            }
          }
        }
      }
      res.sections.push_back(std::move(s));
    }

    if (opt.timeline) {
      std::stable_sort(res.timeline.begin(), res.timeline.end(),
                       [](const TimelineEntry& a, const TimelineEntry& b) {
                         if (a.t != b.t) return a.t < b.t;
                         return a.rank < b.rank;
                       });
    }
  }
};

}  // namespace

ReplayResult replay(const TraceFile& tf, const mpisim::MachineModel& machine,
                    const ReplayOptions& options) {
  ReplayResult res;
  SectionObserver obs(tf, options, res);
  Walker<SectionObserver> walk(tf, obs, machine.net, options);
  walk.run();
  res.nranks = tf.header.nranks;
  res.labels = tf.labels;
  res.final_times = std::move(walk.final_times);
  res.makespan = walk.makespan;
  res.events = walk.events;
  res.messages = walk.messages;
  res.collectives = walk.collectives;
  res.bytes_sent = walk.bytes_sent;
  obs.finish();
  return res;
}

VerifyResult verify_roundtrip(const TraceFile& tf) {
  const ReplayResult rr = replay(tf, tf.header.machine, {});
  for (std::size_t r = 0; r < tf.ranks.size(); ++r) {
    const RankStream& rec = tf.ranks[r];
    if (rr.final_times[r] != rec.t_final) {
      return {false, "rank " + std::to_string(r) +
                         ": final time diverged from recording"};
    }
    const auto& got = rr.rank_totals[r];
    if (got.size() != rec.totals.size()) {
      return {false, "rank " + std::to_string(r) +
                         ": section totals count mismatch"};
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto& a = got[i];
      const auto& b = rec.totals[i];
      if (a.comm != b.comm || a.label != b.label || a.count != b.count ||
          a.inclusive != b.inclusive) {
        const std::string name = b.label < tf.labels.size()
                                     ? tf.labels[b.label]
                                     : std::to_string(b.label);
        return {false, "rank " + std::to_string(r) + " section " + name +
                           ": totals diverged from recording"};
      }
    }
  }
  return {true, ""};
}

}  // namespace mpisect::trace
