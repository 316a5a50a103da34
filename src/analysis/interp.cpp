#include "analysis/interp.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "mpisim/message.hpp"
#include "trace/walk.hpp"

namespace mpisect::analysis {

namespace {

using trace::Endpoint;
using trace::Event;
using trace::EventKind;

/// One pass over the raw streams: wildcard presence, envelope coverage,
/// and communicator membership (every rank that touches a context).
void scan_envelopes(const trace::TraceFile& tf, InterpResult& res) {
  std::map<int, std::set<int>> members_seen;
  for (const auto& rs : tf.ranks) {
    for (const Event& ev : rs.events) {
      switch (ev.kind) {
        case EventKind::RecvPost:
        case EventKind::Probe:
          if (ev.post_src == Event::kNotRecorded) {
            res.envelopes_recorded = false;
          } else if (ev.post_src == mpisim::kAnySource ||
                     ev.tag == mpisim::kAnyTag) {
            res.has_wildcard = true;
          }
          members_seen[ev.comm].insert(rs.rank);
          break;
        case EventKind::SendPost:
        case EventKind::CollBegin:
        case EventKind::CommSync:
        case EventKind::NbcPost:
        case EventKind::SectionEnter:
        case EventKind::SectionExit:
          members_seen[ev.comm].insert(rs.rank);
          break;
        default:
          break;
      }
    }
  }
  for (const auto& [ctx, set] : members_seen) {
    res.comm_members[ctx] = std::vector<int>(set.begin(), set.end());
  }
}

void join_vc(std::vector<std::uint64_t>& into,
             const std::vector<std::uint64_t>& other) {
  for (std::size_t i = 0; i < into.size(); ++i) {
    into[i] = std::max(into[i], other[i]);
  }
}

/// The analyzer's walk observer, recorded frame only: per-event times,
/// binding predecessors and sections, the channel database, and vector
/// clocks when the trace has wildcard receives.
class Interp : public trace::WalkObserver {
 public:
  static constexpr bool kWhatIf = false;
  static constexpr const char* kWho = "analysis";
  using Msg = trace::WalkMsg<1>;
  using Round = trace::WalkRound<1>;

  Interp(const trace::TraceFile& tf, InterpResult& res)
      : res_(res), recv_slots_(tf.ranks.size()) {
    const std::size_t n = tf.ranks.size();
    res_.times.resize(n);
    res_.t0.resize(n);
    scan_envelopes(tf, res_);
    track_clocks_ = res_.has_wildcard && res_.envelopes_recorded;
    if (track_clocks_) {
      res_.clocks.resize(n);
      vc_.assign(n, std::vector<std::uint64_t>(n, 0));
    }
    for (std::size_t r = 0; r < n; ++r) {
      res_.t0[r] = tf.ranks[r].t0;
      res_.times[r].reserve(tf.ranks[r].events.size());
      if (track_clocks_) res_.clocks[r].reserve(tf.ranks[r].events.size());
    }
  }

  void send_posted(int r, std::uint32_t idx, const Event& ev, Msg& m) {
    auto& chan = res_.channels[ChannelKey{ev.comm, r, ev.peer}];
    m.slot = chan.size();
    chan.push_back(SendInfo{ev.seq, ev.tag, ev.bytes, idx, m.f[0].rend,
                            false, 0, false, 0});
  }

  void recv_posted(int r, std::uint32_t idx, const Event& ev) {
    recv_slots_[static_cast<std::size_t>(r)].push_back(res_.recvs.size());
    res_.recvs.push_back(RecvInfo{.rank = r,
                                  .comm = ev.comm,
                                  .post_idx = idx,
                                  .post_src = ev.post_src,
                                  .post_tag = ev.tag,
                                  .matched_src = ev.peer,
                                  .seq = ev.seq});
  }

  void recv_done(int r, std::uint32_t idx, std::size_t post_ord,
                 const trace::MsgKey& key, const Msg& m) {
    // Mark the channel-side match so match sets can see consumption.
    auto& send =
        res_.channels[ChannelKey{key.comm, key.src, key.dst}][m.slot];
    send.matched = true;
    send.recv_post_idx = m.post.idx;
    send.completed = true;
    send.recv_wait_idx = idx;
    auto& ri = res_.recvs[recv_slots_[static_cast<std::size_t>(r)][post_ord]];
    ri.completed = true;
    ri.wait_idx = idx;
  }

  /// Every member's exit joins the vector clocks of all entries.
  void entered(int r, Round& rd) {
    if (!track_clocks_) return;
    if (rd.arrived == 0) {
      rd.slot = round_vcs_.size();
      round_vcs_.emplace_back(vc_.size(), 0);
    }
    join_vc(round_vcs_[rd.slot], vc_[static_cast<std::size_t>(r)]);
  }

  void left(int r, const Round& rd) {
    if (track_clocks_) {
      join_vc(vc_[static_cast<std::size_t>(r)], round_vcs_[rd.slot]);
    }
  }

  void commit(int r, double t, const trace::OpenSection* section,
              Endpoint parent, Endpoint from) {
    const auto ur = static_cast<std::size_t>(r);
    EventInfo info;
    info.t = t;
    info.parent_rank = parent.rank;
    info.parent_idx = parent.idx;
    if (section != nullptr) {
      info.section_comm = section->comm;
      info.section = section->label;
    }
    res_.times[ur].push_back(info);
    if (track_clocks_) {
      std::vector<std::uint64_t>& vc = vc_[ur];
      if (from.rank >= 0) {
        join_vc(vc, res_.clocks[static_cast<std::size_t>(from.rank)][from.idx]);
      }
      ++vc[ur];
      res_.clocks[ur].push_back(vc);
    }
  }

 private:
  InterpResult& res_;
  bool track_clocks_ = false;
  std::vector<std::vector<std::size_t>> recv_slots_;  ///< recvs[] per post
  std::vector<std::vector<std::uint64_t>> vc_;        ///< per-rank clock
  std::vector<std::vector<std::uint64_t>> round_vcs_;  ///< per sync/NBC round
};

}  // namespace

bool InterpResult::happens_before(int rank_a, std::uint32_t idx_a, int rank_b,
                                  std::uint32_t idx_b) const {
  if (rank_a == rank_b) return idx_a < idx_b;
  const auto& va = clocks[static_cast<std::size_t>(rank_a)][idx_a];
  const auto& vb = clocks[static_cast<std::size_t>(rank_b)][idx_b];
  return va[static_cast<std::size_t>(rank_a)] <=
         vb[static_cast<std::size_t>(rank_a)];
}

InterpResult interpret(const trace::TraceFile& tf) {
  InterpResult res;
  Interp obs(tf, res);
  trace::Walker<Interp> walk(tf, obs, tf.header.machine.net, {});
  walk.run();
  res.final_times = std::move(walk.final_times);
  res.makespan = walk.makespan;
  res.last_rank = walk.last_rank;
  return res;
}

}  // namespace mpisect::analysis
