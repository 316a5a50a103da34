#include "analysis/analyzer.hpp"

#include <array>
#include <cstdio>

#include "mpisim/hooks.hpp"
#include "mpisim/message.hpp"

namespace mpisect::analysis {

namespace {

std::string fmt_t(double t) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.6f", t);
  return buf.data();
}

std::string tag_str(int tag) {
  return tag == mpisim::kAnyTag ? std::string("ANY_TAG") : std::to_string(tag);
}

std::string src_str(int src) {
  return src == mpisim::kAnySource ? std::string("ANY_SOURCE")
                                   : std::to_string(src);
}

/// "recv-post #3 (src=ANY_SOURCE, tag=5)" — the site every race / latent
/// deadlock diagnostic anchors on.
std::string recv_site(const RecvInfo& rv) {
  return "recv-post #" + std::to_string(rv.post_idx) +
         " (src=" + src_str(rv.post_src) + ", tag=" + tag_str(rv.post_tag) +
         ")";
}

double recv_completion_time(const InterpResult& in, const RecvInfo& rv) {
  if (!rv.completed) return 0.0;
  return in.times[static_cast<std::size_t>(rv.rank)][rv.wait_idx].t;
}

std::string alt_str(const AltSender& a) {
  return "rank " + std::to_string(a.src) + " (seq " + std::to_string(a.seq) +
         ", tag " + std::to_string(a.tag) + ", posted t=" + fmt_t(a.t_post) +
         ")";
}

checker::Diagnostic race_diag(const InterpResult& in, const RaceFinding& rf) {
  const RecvInfo& rv = in.recvs[rf.recv_slot];
  checker::Diagnostic d;
  d.category = checker::Category::MessageRace;
  d.severity = checker::Severity::Warning;
  d.rank = rv.rank;
  d.comm_context = rv.comm;
  d.t_virtual = recv_completion_time(in, rv);
  d.site = recv_site(rv);
  d.message = "recorded match rank " + std::to_string(rv.matched_src) +
              " (seq " + std::to_string(rv.seq) + "); " +
              std::to_string(rf.alternates.size()) +
              " concurrent alternate sender(s): ";
  for (std::size_t i = 0; i < rf.alternates.size(); ++i) {
    if (i > 0) d.message += ", ";
    d.message += alt_str(rf.alternates[i]);
  }
  return d;
}

checker::Diagnostic latent_diag(const InterpResult& in,
                                const LatentDeadlock& ld) {
  const RecvInfo& rv = in.recvs[ld.recv_slot];
  checker::Diagnostic d;
  d.category = checker::Category::LatentDeadlock;
  d.severity = checker::Severity::Error;
  d.rank = rv.rank;
  d.comm_context = rv.comm;
  d.t_virtual = recv_completion_time(in, rv);
  d.site = recv_site(rv);
  d.message = "forcing the match with " + alt_str(ld.forced) +
              " wedges the run after " + std::to_string(ld.events_replayed) +
              " events:";
  for (const auto& cyc : ld.analysis.cycles) {
    d.message += " wait-for cycle";
    for (const int r : cyc.ranks) {
      d.message += ' ';
      d.message.append(std::to_string(r)).append(" ->");
    }
    d.message += ' ';
    d.message.append(std::to_string(cyc.ranks.empty() ? -1 : cyc.ranks[0]));
    d.message += ";";
  }
  for (const auto& [waiter, peer] : ld.analysis.orphans) {
    d.message += " orphaned wait rank " + std::to_string(waiter) +
                 " -> finished rank " + std::to_string(peer) + ";";
  }
  std::string blocked;
  for (std::size_t r = 0; r < ld.states.size(); ++r) {
    const auto& st = ld.states[r];
    if (st.phase != checker::RankWaitState::Phase::Blocked) continue;
    if (!blocked.empty()) blocked += ", ";
    blocked += "rank " + std::to_string(r) + " in " +
               mpisim::mpi_call_name(st.call);
  }
  if (!blocked.empty()) d.message += " (" + blocked + ")";
  return d;
}

}  // namespace

std::size_t AnalysisResult::error_count() const {
  std::size_t n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == checker::Severity::Error) ++n;
  }
  return n;
}

std::size_t AnalysisResult::finding_count() const {
  std::size_t n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity != checker::Severity::Info) ++n;
  }
  return n;
}

AnalysisResult analyze(const trace::TraceFile& tf, const AnalyzerOptions& opts) {
  AnalysisResult res;
  res.app = tf.header.app;
  res.nranks = tf.header.nranks;
  res.total_events = tf.total_events();
  res.labels = tf.labels;
  res.interp = interpret(tf);

  if ((opts.races || opts.latent) && !res.interp.envelopes_recorded) {
    checker::Diagnostic d;
    d.category = checker::Category::MessageRace;
    d.severity = checker::Severity::Info;
    d.site = "trace header";
    d.message =
        "posted receive envelopes not recorded (trace format < v3); "
        "message-race and latent-deadlock analysis skipped";
    res.diagnostics.push_back(std::move(d));
  }

  if (opts.races || opts.latent) {
    res.races = find_races(res.interp);
  }
  if (opts.latent && !res.races.empty()) {
    res.latent = find_latent_deadlocks(tf, res.interp, res.races);
  }
  if (opts.critical_path) {
    res.critical_path = extract_critical_path(res.interp);
  }

  if (opts.races) {
    for (const auto& rf : res.races) {
      res.diagnostics.push_back(race_diag(res.interp, rf));
    }
  }
  for (const auto& ld : res.latent) {
    res.diagnostics.push_back(latent_diag(res.interp, ld));
  }
  return res;
}

void fill_telemetry(const AnalysisResult& res, telemetry::Registry& reg) {
  using telemetry::Scope;
  const auto races = reg.add_counter(
      "analysis.races", Scope::Rank,
      "message races observed at the receiving rank", "findings");
  const auto latent = reg.add_counter(
      "analysis.latent_deadlocks", Scope::Rank,
      "alternate matchings that wedge, at the redirected receive's rank",
      "findings");
  const auto onpath = reg.add_counter(
      "analysis.onpath_seconds", Scope::Rank,
      "critical-path virtual seconds charged to the rank", "seconds");
  const auto slack = reg.add_counter(
      "analysis.slack_seconds", Scope::Rank,
      "makespan minus the rank's finish time", "seconds");
  const auto pev = reg.add_counter("analysis.path_events", Scope::Process,
                                   "events on the critical path", "events");
  const auto hops = reg.add_counter("analysis.path_hops", Scope::Process,
                                    "cross-rank hops on the critical path",
                                    "hops");
  for (const auto& rf : res.races) {
    reg.inc(races, res.interp.recvs[rf.recv_slot].rank);
  }
  for (const auto& ld : res.latent) {
    reg.inc(latent, res.interp.recvs[ld.recv_slot].rank);
  }
  const auto& cp = res.critical_path;
  for (std::size_t r = 0; r < cp.rank_onpath.size(); ++r) {
    reg.inc(onpath, static_cast<int>(r), cp.rank_onpath[r]);
    reg.inc(slack, static_cast<int>(r), cp.rank_slack[r]);
  }
  reg.inc(pev, -1, static_cast<double>(cp.length));
  reg.inc(hops, -1, static_cast<double>(cp.cross_rank_hops));
}

}  // namespace mpisect::analysis
