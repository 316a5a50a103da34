#include "analysis/latent.hpp"

#include <map>
#include <utility>

#include "checker/comm_registry.hpp"
#include "mpisim/message.hpp"

namespace mpisect::analysis {

namespace {

using trace::Event;
using trace::EventKind;

/// One deposited send during the simulation.
struct PendingSend {
  int src = -1;
  std::uint64_t seq = 0;
  int tag = 0;
  bool rendezvous = false;
  bool reserved = false;  ///< held for the forced receive only
  bool matched = false;
};

/// One posted receive during the simulation.
struct PostedRecv {
  std::size_t recv_slot = 0;  ///< InterpResult::recvs index
  int comm = 0;
  int post_src = 0;
  int post_tag = 0;
  bool forced = false;
  bool matched = false;
};

struct SyncPoint {
  int members = 0;
  int arrived = 0;
};

struct SimRank {
  std::size_t cursor = 0;
  /// Program-order send identities for SendWait backrefs.
  std::vector<std::pair<ChannelKey, std::uint64_t>> sends;
  std::vector<std::size_t> posted;  ///< posted-receive indices, post order
  std::map<int, std::uint64_t> sync_ordinal;
  std::map<int, std::uint64_t> sync_done;
  bool sync_entered = false;
  bool done = false;
};

/// Untimed greedy re-matching of the event skeleton with one forced pair.
struct Sim {
  const trace::TraceFile& tf;
  const InterpResult& in;
  std::size_t forced_slot;
  const AltSender& forced;

  std::vector<SimRank> ranks;
  std::map<ChannelKey, std::vector<PendingSend>> channels;
  std::vector<PostedRecv> posts;
  std::map<std::pair<int, std::uint64_t>, SyncPoint> syncs;
  /// Nonblocking-collective rounds keyed by (comm, generation): the post
  /// never blocks, the completion waits for every member's post.
  std::map<std::pair<int, std::uint64_t>, SyncPoint> nbc;
  std::vector<std::vector<std::size_t>> slot_index;  ///< rank -> recv slots
  std::uint64_t advanced = 0;

  Sim(const trace::TraceFile& t, const InterpResult& i, std::size_t slot,
      const AltSender& alt)
      : tf(t), in(i), forced_slot(slot), forced(alt) {
    ranks.resize(tf.ranks.size());
    slot_index.resize(tf.ranks.size());
    for (std::size_t k = 0; k < in.recvs.size(); ++k) {
      slot_index[static_cast<std::size_t>(in.recvs[k].rank)].push_back(k);
    }
  }

  PendingSend* find_send(const ChannelKey& key, std::uint64_t seq) {
    const auto it = channels.find(key);
    if (it == channels.end()) return nullptr;
    for (PendingSend& ps : it->second) {
      if (ps.seq == seq) return &ps;
    }
    return nullptr;
  }

  /// Greedy match policy: the forced receive takes only its reserved
  /// send; everything else prefers its recorded sender, then the lowest
  /// (src, seq) pending send — deterministic, so reports are byte-stable.
  bool try_match(int dst, PostedRecv& pr) {
    if (pr.forced) {
      PendingSend* ps =
          find_send(ChannelKey{pr.comm, forced.src, dst}, forced.seq);
      if (ps == nullptr || ps->matched) return false;
      ps->matched = true;
      pr.matched = true;
      return true;
    }
    auto eligible = [&](const PendingSend& ps) {
      return !ps.matched && !ps.reserved &&
             mpisim::envelope_matches(pr.post_src, pr.post_tag, ps.src,
                                      ps.tag);
    };
    const RecvInfo& ri = in.recvs[pr.recv_slot];
    if (ri.matched_src >= 0) {
      PendingSend* ps =
          find_send(ChannelKey{pr.comm, ri.matched_src, dst}, ri.seq);
      if (ps != nullptr && eligible(*ps)) {
        ps->matched = true;
        pr.matched = true;
        return true;
      }
    }
    const bool any_src = pr.post_src == mpisim::kAnySource;
    PendingSend* best = nullptr;
    for (auto& [key, queue] : channels) {
      if (key.comm != pr.comm || key.dst != dst) continue;
      if (!any_src && key.src != pr.post_src) continue;
      for (PendingSend& ps : queue) {
        // Non-overtaking applies among matching envelopes only: consumed,
        // reserved, and tag-mismatched sends are scanned past.
        if (!eligible(ps)) continue;
        if (best == nullptr || ps.src < best->src ||
            (ps.src == best->src && ps.seq < best->seq)) {
          best = &ps;
        }
        break;  // FIFO: first compatible live send per channel
      }
    }
    if (best == nullptr) return false;
    best->matched = true;
    pr.matched = true;
    return true;
  }

  void match_rank(int dst) {
    for (const std::size_t p : ranks[static_cast<std::size_t>(dst)].posted) {
      if (!posts[p].matched) (void)try_match(dst, posts[p]);
    }
  }

  /// Advance rank r by one event; false = blocked (or finished).
  bool step(int r) {
    SimRank& st = ranks[static_cast<std::size_t>(r)];
    const auto& events = tf.ranks[static_cast<std::size_t>(r)].events;
    if (st.cursor >= events.size()) {
      st.done = true;
      return false;
    }
    const Event& ev = events[st.cursor];
    switch (ev.kind) {
      case EventKind::SendPost: {
        const ChannelKey key{ev.comm, r, ev.peer};
        const RecvInfo& fr = in.recvs[forced_slot];
        const bool reserved = r == forced.src && ev.seq == forced.seq &&
                              ev.comm == fr.comm && ev.peer == fr.rank;
        channels[key].push_back(PendingSend{
            r, ev.seq, ev.tag,
            ev.bytes > tf.header.machine.net.eager_threshold, reserved,
            false});
        st.sends.emplace_back(key, ev.seq);
        match_rank(ev.peer);
        break;
      }
      case EventKind::SendWait: {
        if (ev.op >= st.sends.size()) return false;  // corrupt backref
        const auto& [key, seq] = st.sends[st.sends.size() - 1 - ev.op];
        const PendingSend* ps = find_send(key, seq);
        if (ps != nullptr && ps->rendezvous && !ps->matched) return false;
        break;
      }
      case EventKind::RecvPost: {
        PostedRecv pr;
        pr.recv_slot =
            slot_index[static_cast<std::size_t>(r)][st.posted.size()];
        const RecvInfo& ri = in.recvs[pr.recv_slot];
        pr.comm = ri.comm;
        pr.post_src = ri.post_src;
        pr.post_tag = ri.post_tag;
        pr.forced = pr.recv_slot == forced_slot;
        posts.push_back(pr);
        st.posted.push_back(posts.size() - 1);
        match_rank(r);
        break;
      }
      case EventKind::RecvWait: {
        if (ev.seq >= st.posted.size()) return false;  // corrupt backref
        const std::size_t p = st.posted[st.posted.size() - 1 - ev.seq];
        if (!posts[p].matched) return false;
        break;
      }
      case EventKind::Probe: {
        // Pre-v3 probes carry no posted envelope; fall back to the
        // recorded matched identity.
        const bool recorded = ev.post_src != Event::kNotRecorded;
        const int post_src = recorded ? ev.post_src : ev.peer;
        const int post_tag = recorded ? ev.tag : mpisim::kAnyTag;
        bool found = false;
        for (const auto& [key, queue] : channels) {
          if (key.comm != ev.comm || key.dst != r) continue;
          if (post_src != mpisim::kAnySource && key.src != post_src) {
            continue;
          }
          for (const PendingSend& ps : queue) {
            if (!ps.matched && !ps.reserved &&
                mpisim::envelope_matches(post_src, post_tag, ps.src,
                                         ps.tag)) {
              found = true;
              break;
            }
          }
          if (found) break;
        }
        if (!found) return false;
        break;
      }
      case EventKind::CommSync: {
        const std::uint64_t ordinal = st.sync_ordinal.contains(ev.comm)
                                          ? st.sync_ordinal.at(ev.comm)
                                          : 0;
        SyncPoint& sy = syncs[{ev.comm, ordinal}];
        if (sy.members == 0) sy.members = ev.peer;
        if (!st.sync_entered) {
          ++sy.arrived;
          st.sync_entered = true;
        }
        if (sy.arrived < sy.members) return false;
        st.sync_entered = false;
        st.sync_ordinal[ev.comm] = ordinal + 1;
        ++st.sync_done[ev.comm];
        break;
      }
      case EventKind::NbcPost: {
        SyncPoint& nb = nbc[{ev.comm, ev.seq}];
        if (nb.members == 0) nb.members = ev.peer;
        ++nb.arrived;
        break;
      }
      case EventKind::NbcComplete: {
        const auto it = nbc.find({ev.comm, ev.seq});
        if (it == nbc.end() || it->second.arrived < it->second.members) {
          return false;
        }
        break;
      }
      case EventKind::CollBegin:
      case EventKind::CollEnd:
      case EventKind::SectionEnter:
      case EventKind::SectionExit:
      case EventKind::Pcontrol:
        break;
      case EventKind::Finalize:
        st.done = true;
        break;
    }
    ++st.cursor;
    ++advanced;
    return true;
  }

  /// Run to completion or quiescence; true = everyone finished.
  bool run() {
    for (;;) {
      bool progress = false;
      bool all_done = true;
      for (int r = 0; r < static_cast<int>(ranks.size()); ++r) {
        if (ranks[static_cast<std::size_t>(r)].done) continue;
        while (step(r)) progress = true;
        if (!ranks[static_cast<std::size_t>(r)].done) all_done = false;
      }
      if (all_done) return true;
      if (!progress) return false;
    }
  }

  /// Blocked-rank snapshot in checker::RankWaitState form.
  std::vector<checker::RankWaitState> snapshot() const {
    std::vector<checker::RankWaitState> states(ranks.size());
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      const SimRank& st = ranks[r];
      auto& ws = states[r];
      for (const auto& [ctx, n] : st.sync_done) ws.coll_done[ctx] = n;
      if (st.done) {
        ws.phase = checker::RankWaitState::Phase::Finished;
        continue;
      }
      ws.phase = checker::RankWaitState::Phase::Blocked;
      const auto& events = tf.ranks[r].events;
      const Event& ev = events[st.cursor];
      // Observation time: the recorded clock of the last completed event.
      ws.t_virtual = st.cursor > 0 ? in.times[r][st.cursor - 1].t
                                   : tf.ranks[r].t0;
      switch (ev.kind) {
        case EventKind::RecvWait: {
          if (ev.seq >= st.posted.size()) {
            ws.peer_world = -1;
            break;
          }
          const std::size_t p = st.posted[st.posted.size() - 1 - ev.seq];
          const PostedRecv& pr = posts[p];
          ws.call = mpisim::MpiCall::Recv;
          ws.comm_context = pr.comm;
          // The forced receive waits specifically for its reserved sender.
          ws.peer_world = pr.forced ? forced.src : pr.post_src;
          break;
        }
        case EventKind::SendWait: {
          if (ev.op >= st.sends.size()) {
            ws.peer_world = -1;
            break;
          }
          const auto& [key, seq] = st.sends[st.sends.size() - 1 - ev.op];
          ws.call = mpisim::MpiCall::Wait;
          ws.comm_context = key.comm;
          ws.peer_world = key.dst;
          break;
        }
        case EventKind::Probe: {
          ws.call = mpisim::MpiCall::Probe;
          ws.comm_context = ev.comm;
          ws.peer_world = ev.post_src == Event::kNotRecorded ? ev.peer
                                                             : ev.post_src;
          break;
        }
        case EventKind::CommSync: {
          ws.call = mpisim::MpiCall::CommSplit;
          ws.collective = true;
          ws.comm_context = ev.comm;
          ws.coll_ordinal = st.sync_ordinal.contains(ev.comm)
                                ? st.sync_ordinal.at(ev.comm)
                                : 0;
          break;
        }
        case EventKind::NbcComplete: {
          ws.call = mpisim::MpiCall::Wait;
          ws.collective = true;
          ws.comm_context = ev.comm;
          ws.coll_ordinal = ev.seq;
          break;
        }
        default:
          // A non-blocking event can only be "stuck" on a corrupt backref.
          ws.call = mpisim::MpiCall::Wait;
          ws.comm_context = -1;
          ws.peer_world = -1;
          break;
      }
    }
    return states;
  }
};

/// CommRegistry holds a mutex (non-movable), so it is filled in place.
void fill_registry(const InterpResult& in, checker::CommRegistry& comms) {
  for (const auto& [ctx, members] : in.comm_members) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      mpisim::CommLifecycle info;
      info.context = ctx;
      info.parent_context = -1;
      info.rank = static_cast<int>(i);
      info.size = static_cast<int>(members.size());
      info.world_ranks = &members;
      comms.on_create(info, 0.0);
    }
  }
}

}  // namespace

std::vector<LatentDeadlock> find_latent_deadlocks(
    const trace::TraceFile& tf, const InterpResult& in,
    const std::vector<RaceFinding>& races) {
  std::vector<LatentDeadlock> out;
  if (races.empty()) return out;
  checker::CommRegistry comms;
  fill_registry(in, comms);
  for (const RaceFinding& race : races) {
    for (const AltSender& alt : race.alternates) {
      Sim sim(tf, in, race.recv_slot, alt);
      if (sim.run()) continue;  // alternate matching still completes
      LatentDeadlock ld;
      ld.recv_slot = race.recv_slot;
      ld.forced = alt;
      ld.states = sim.snapshot();
      ld.analysis = checker::WaitGraph::analyze(ld.states, comms);
      ld.events_replayed = sim.advanced;
      out.push_back(std::move(ld));
    }
  }
  return out;
}

}  // namespace mpisect::analysis
