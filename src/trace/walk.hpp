// The one event walker over a recorded trace's rank streams, shared by the
// what-if replayer (trace/replay) and the offline analyzer (analysis/interp).
//
// Each rank's cursor advances until an event's cross-rank dependency is not
// met yet (a receive whose send is unwalked, a rendezvous send whose receive
// is unposted, a comm-sync or NBC fence short of its quorum); a round-robin
// loop over the ranks repeats until every stream is done, or throws when no
// rank can move (truncated or inconsistent trace).
//
// Frame 0 re-simulates the recorded machine and reproduces the recorded
// clock bit for bit, so a recorded timestamp behind it, or a Finalize time
// off the footer, is an integrity failure. It also keeps each message's
// send/post positions and each round's latest entrant, from which the walk
// names every event's binding predecessor. A what-if observer adds frame 1,
// re-costed under another machine, progress model, compute scale or fault
// plan. Cross-rank times come only from mpisim/cost_rules.hpp and
// ProgressModel::nbc_complete_time, the rules of the live simulator.
//
// An observer derives from WalkObserver and hides the hooks it needs; the
// hooks are inline, so the ones it leaves empty cost nothing.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpisim/cost_rules.hpp"
#include "mpisim/faults/engine.hpp"
#include "mpisim/message.hpp"
#include "trace/replay.hpp"

namespace mpisect::trace {

/// A (rank, event index) position in the recorded streams; rank < 0 = none.
struct Endpoint {
  int rank = -1;
  std::uint32_t idx = 0;
};

/// Identity of one message: context, source and destination world ranks,
/// and the per-edge wire sequence number.
struct MsgKey {
  int comm = 0;
  int src = 0;
  int dst = 0;
  std::uint64_t seq = 0;
  bool operator==(const MsgKey&) const = default;
  [[nodiscard]] bool null() const noexcept { return comm < 0; }
  static MsgKey none() noexcept { return MsgKey{-1, 0, 0, 0}; }
};

struct MsgKeyHash {
  std::size_t operator()(const MsgKey& k) const noexcept {
    std::size_t h = static_cast<std::size_t>(k.comm) * 1000003u;
    h ^= static_cast<std::size_t>(k.src) * 10007u;
    h ^= static_cast<std::size_t>(k.dst) * 65599u;
    h ^= static_cast<std::size_t>(k.seq) + (h << 6) + (h >> 2);
    return h;
  }
};

/// One clock frame's view of an in-flight message.
struct MsgFrame {
  double start = 0.0;  ///< sender clock when the wire transfer begins
  double wire = 0.0;   ///< wire cost (fault-perturbed in a what-if frame)
  double avail = 0.0;  ///< start + wire
  double post = 0.0;   ///< receiver clock at the matching RecvPost
  bool rend = false;   ///< rendezvous under this frame's eager threshold
};

template <std::size_t F>
struct WalkMsg {
  std::array<MsgFrame, F> f{};
  Endpoint send, post;  ///< recorded SendPost / RecvPost positions
  bool lost = false;    ///< the fault plan lost it in the what-if frame
  bool have_send = false, have_post = false;
  int consumed = 0;      ///< SendWait + RecvWait; erased at 2
  std::size_t slot = 0;  ///< the observer's index for this message
};

/// A comm-sync round, keyed by (comm, per-rank call ordinal), or a
/// nonblocking-collective round, keyed by (comm, generation).
template <std::size_t F>
struct WalkRound {
  int members = 0;
  int arrived = 0;
  int departed = 0;
  std::uint64_t rounds = 0;     ///< comm-sync: modelled exchange rounds
  std::uint64_t bytes = 0;      ///< NBC: largest posted payload
  std::array<double, F> max{};  ///< latest entry time per frame
  Endpoint latest;              ///< recorded frame's latest entrant
  std::size_t slot = 0;         ///< the observer's index for this round
};

/// An open section on a rank's stack; `t_in` is in the observed frame.
struct OpenSection {
  int comm = 0;
  std::uint32_t label = 0;
  double t_in = 0.0;
};

/// The hooks a walk calls, all empty. `r` is the walking rank, `idx` its
/// event's index in the rank stream.
struct WalkObserver {
  /// SendPost; the observer may set msg.slot.
  template <class Msg>
  void send_posted(int /*r*/, std::uint32_t /*idx*/, const Event&, Msg&) {}
  void recv_posted(int /*r*/, std::uint32_t /*idx*/, const Event&) {}
  /// RecvWait completed the receive posted `post_ord`-th on this rank.
  template <class Msg>
  void recv_done(int /*r*/, std::uint32_t /*idx*/, std::size_t /*post_ord*/,
                 const MsgKey&, const Msg&) {}
  /// Comm-sync or NBC entry (before `round.arrived` counts it) and exit.
  template <class Round>
  void entered(int /*r*/, Round&) {}
  template <class Round>
  void left(int /*r*/, const Round&) {}
  /// Every walked event, with its observed-frame time, the section it
  /// happened in (nullptr outside sections), its binding predecessor and
  /// the message endpoint it synchronized with (rank < 0 when none).
  void commit(int /*r*/, double /*t*/, const OpenSection*, Endpoint /*parent*/,
              Endpoint /*from*/) {}
  /// Section boundaries; `depth` counts the sections enclosing this one.
  void section_entered(int /*r*/, const OpenSection&, std::size_t /*depth*/) {}
  void section_exited(int /*r*/, const OpenSection&, double /*t_out*/,
                      std::size_t /*depth*/) {}
};

template <class Obs>
class Walker {
 public:
  /// Clock frames: the recorded one, plus the what-if one if asked for.
  static constexpr std::size_t F = Obs::kWhatIf ? 2 : 1;
  static constexpr std::size_t kRec = 0;      ///< the recorded machine
  static constexpr std::size_t kOut = F - 1;  ///< the frame results use
  using Msg = WalkMsg<F>;
  using Round = WalkRound<F>;

  /// `net` and `opt` describe the what-if frame; a recorded-only walk
  /// ignores them.
  Walker(const TraceFile& tf, Obs& obs, const mpisim::NetworkModel& net,
         const ReplayOptions& opt)
      : tf_(tf), obs_(obs) {
    if (tf.ranks.size() != static_cast<std::size_t>(tf.header.nranks)) {
      throw TraceError("trace rank streams do not match header rank count");
    }
    frames_[kRec] = {&tf.header.machine.net, tf.header.progress, 0.0};
    if constexpr (F == 2) {
      frames_[1] = {&net, opt.progress.value_or(tf.header.progress), 0.0};
      // Recorded gaps already include the recorded model's core tax, so the
      // what-if frame multiplies by the factor ratio.
      gap_scale_ = opt.compute_scale * (frames_[1].prog.compute_factor() /
                                        frames_[0].prog.compute_factor());
      if (!opt.faults.empty()) {
        if (!opt.faults.kills.empty()) {
          throw TraceError(
              "fault plan contains kill rules, which are not replayable: the "
              "recorded skeleton assumes every rank completed");
        }
        faults_ = std::make_unique<mpisim::faults::FaultEngine>(
            opt.faults, opt.fault_seed != 0 ? opt.fault_seed : tf.header.seed,
            tf.header.nranks);
      }
    }
    for (Frame& fr : frames_) fr.rex = fr.prog.rendezvous_extra();
    ranks_.resize(tf.ranks.size());
    for (std::size_t r = 0; r < tf.ranks.size(); ++r) {
      ranks_[r].t.fill(tf.ranks[r].t0);
    }
    final_times.assign(tf.ranks.size(), 0.0);
  }

  /// Walk every stream to its end; throws TraceError on a dependency
  /// stall or a failed integrity check.
  void run() {
    for (;;) {
      bool any_active = false;
      bool progress = false;
      for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) {
        const Rank& st = ranks_[static_cast<std::size_t>(r)];
        if (st.done) continue;
        any_active = true;
        for (;;) {
          const Step s = step(r);
          if (s == Step::Advanced) {
            progress = true;
            if (st.done) break;
            continue;
          }
          if (s == Step::Progress) progress = true;
          break;
        }
      }
      if (!any_active) break;
      if (!progress) stall();
    }
    // Seed with -infinity, not 0.0: compute-rescale what-ifs can shift the
    // time base negative and a 0.0 seed would clamp the makespan.
    makespan = final_times.empty() ? 0.0
                                   : -std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < final_times.size(); ++r) {
      if (final_times[r] > makespan) {
        makespan = final_times[r];
        last_rank = static_cast<int>(r);
      }
    }
  }

  std::vector<double> final_times;  ///< observed frame, per rank
  double makespan = 0.0;
  int last_rank = -1;  ///< argmax of final_times (smallest on ties)
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t collectives = 0;
  std::uint64_t bytes_sent = 0;

 private:
  enum class Step : std::uint8_t { Advanced, Progress, Blocked };
  using RoundKey = std::pair<int, std::uint64_t>;

  struct Frame {
    const mpisim::NetworkModel* net = nullptr;
    mpisim::ProgressModel prog;
    double rex = 0.0;  ///< prog.rendezvous_extra()
  };

  struct Rank {
    std::size_t cursor = 0;
    std::array<double, F> t{};
    std::vector<MsgKey> send_keys, recv_keys;
    bool sync_entered = false;
    RoundKey sync_key{0, 0};
    std::map<int, std::uint64_t> sync_ordinal;  ///< per-comm CommSync count
    std::vector<OpenSection> stack;
    bool done = false;
  };

  [[noreturn]] void fail(int r, const Event& ev, const std::string& why) const {
    const std::size_t at = ranks_[static_cast<std::size_t>(r)].cursor;
    throw TraceError(std::string(Obs::kWho) + " failed at rank " +
                     std::to_string(r) + " event #" + std::to_string(at) +
                     " (" + event_kind_name(ev.kind) + "): " + why);
  }

  [[noreturn]] void stall() const {
    std::string stuck;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      if (ranks_[r].done) continue;
      if (!stuck.empty()) stuck += ", ";
      stuck += std::to_string(r) + "@" + std::to_string(ranks_[r].cursor);
      if (stuck.size() > 120) break;
    }
    throw TraceError(std::string(Obs::kWho) +
                     " dependency stall (truncated or inconsistent trace); "
                     "blocked ranks: " +
                     stuck);
  }

  /// Re-charge the compute gap preceding `ev`. The recorded frame adopts
  /// the recorded absolute clock; the what-if frame adds the scaled delta
  /// (or adopts it too while in bitwise lockstep).
  void charge_gap(int r, Rank& st, const Event& ev) {
    if (!ev.has_time) return;
    if (ev.t_before < st.t[kRec]) {
      fail(r, ev,
           "recorded clock behind replayed clock (trace/model mismatch)");
    }
    if constexpr (F == 2) {
      double scale = gap_scale_;
      if (faults_) scale *= faults_->compute_factor(r, st.t[1]);
      if (scale == 1.0 && st.t[1] == st.t[kRec]) {
        st.t[1] = ev.t_before;
      } else {
        st.t[1] += (ev.t_before - st.t[kRec]) * scale;
      }
    }
    st.t[kRec] = ev.t_before;
  }

  /// Per-call CPU overhead on the jittered stream `salt`.
  void charge_overhead(int r, Rank& st, double mpisim::NetworkModel::*base,
                       std::uint64_t op, std::uint64_t salt) {
    for (std::size_t f = 0; f < F; ++f) {
      const mpisim::NetworkModel& net = *frames_[f].net;
      st.t[f] += std::max(net.cpu_overhead(r, net.*base, op, salt), 0.0);
    }
  }

  void consume(const MsgKey& key, Msg& m) {
    if (++m.consumed >= 2) msgs_.erase(key);
  }

  /// Comm-sync or NBC entry: fold this rank's clocks into the round.
  void enter(int r, std::uint32_t idx, const Rank& st, Round& rd) {
    if (rd.arrived == 0 || st.t[kRec] > rd.max[kRec]) rd.latest = {r, idx};
    for (std::size_t f = 0; f < F; ++f) {
      rd.max[f] = rd.arrived == 0 ? st.t[f] : std::max(rd.max[f], st.t[f]);
    }
    obs_.entered(r, rd);
    ++rd.arrived;
  }

  Step step(int r) {
    Rank& st = ranks_[static_cast<std::size_t>(r)];
    const RankStream& stream = tf_.ranks[static_cast<std::size_t>(r)];
    if (st.cursor >= stream.events.size()) {
      // No Finalize event recorded (aborted run): finish at current time.
      st.done = true;
      final_times[static_cast<std::size_t>(r)] = st.t[kOut];
      return Step::Advanced;
    }
    const Event& ev = stream.events[st.cursor];
    const auto idx = static_cast<std::uint32_t>(st.cursor);
    // Stall rules charge at the rank's first event past their trigger time,
    // like the live engine's fault checkpoints.
    if (faults_) st.t[kOut] += faults_->take_stall(r, st.t[kOut]);
    Endpoint parent;  // binding predecessor, recorded frame
    Endpoint from;    // message endpoint this event synchronized with
    switch (ev.kind) {
      case EventKind::SendPost: {
        charge_gap(r, st, ev);
        charge_overhead(r, st, &mpisim::NetworkModel::send_overhead, ev.op, 0);
        const MsgKey key{ev.comm, r, ev.peer, ev.seq};
        Msg& m = msgs_[key];
        const auto nbytes = static_cast<std::size_t>(ev.bytes);
        for (std::size_t f = 0; f < F; ++f) {
          const mpisim::NetworkModel& net = *frames_[f].net;
          MsgFrame& mf = m.f[f];
          mf.start = st.t[f];
          mf.wire = net.transfer_cost(r, ev.peer, nbytes, ev.seq);
          if (f == 1 && faults_) {
            const mpisim::faults::WireFate fate = faults_->wire_fate(
                r, ev.peer, ev.seq, st.t[f],
                ev.tag >= mpisim::kInternalTagBase);
            mf.wire = mf.wire * fate.cost_factor + fate.add_latency +
                      fate.extra_delay;
            m.lost = fate.lost;
          }
          mf.avail = mf.start + mf.wire;
          mf.rend = nbytes > net.eager_threshold;
        }
        m.have_send = true;
        m.send = {r, idx};
        st.send_keys.push_back(key);
        ++messages;
        bytes_sent += ev.bytes;
        obs_.send_posted(r, idx, ev, m);
        break;
      }
      case EventKind::SendWait: {
        if (ev.op >= st.send_keys.size()) fail(r, ev, "bad send backref");
        const MsgKey key = st.send_keys[st.send_keys.size() - 1 - ev.op];
        const auto it = msgs_.find(key);
        if (it == msgs_.end()) {
          // Already fully consumed — wait() was a no-op re-wait.
          charge_gap(r, st, ev);
          break;
        }
        Msg& m = it->second;
        if (m.lost && m.f[kOut].rend) {
          fail(r, ev,
               "rendezvous message to rank " + std::to_string(key.dst) +
                   " seq " + std::to_string(key.seq) +
                   " lost under the fault plan (retransmit budget "
                   "exhausted); the recorded send cannot complete");
        }
        bool rend = false;
        for (const MsgFrame& mf : m.f) rend = rend || mf.rend;
        if (rend && !m.have_post) return Step::Blocked;
        charge_gap(r, st, ev);
        for (std::size_t f = 0; f < F; ++f) {
          const MsgFrame& mf = m.f[f];
          if (!mf.rend) continue;
          const double done = mpisim::rendezvous_time(mf.start, mf.post,
                                                      mf.wire, frames_[f].rex);
          if (f == kRec && done > st.t[f] && mf.post >= mf.start) {
            parent = m.post;  // the receiver's post gated the transfer
          }
          st.t[f] = std::max(st.t[f], done);
        }
        if (m.f[kRec].rend) from = m.post;
        consume(key, m);
        break;
      }
      case EventKind::RecvPost: {
        charge_gap(r, st, ev);
        if (ev.peer == Event::kUnmatched) {
          st.recv_keys.push_back(MsgKey::none());
        } else {
          const MsgKey key{ev.comm, ev.peer, r, ev.seq};
          Msg& m = msgs_[key];
          for (std::size_t f = 0; f < F; ++f) m.f[f].post = st.t[f];
          m.have_post = true;
          m.post = {r, idx};
          st.recv_keys.push_back(key);
        }
        obs_.recv_posted(r, idx, ev);
        break;
      }
      case EventKind::RecvWait: {
        if (ev.seq >= st.recv_keys.size()) fail(r, ev, "bad recv backref");
        const std::size_t post_ord = st.recv_keys.size() - 1 - ev.seq;
        const MsgKey key = st.recv_keys[post_ord];
        if (key.null()) fail(r, ev, "wait on a receive that never matched");
        const auto it = msgs_.find(key);
        if (it == msgs_.end() || !it->second.have_send) return Step::Blocked;
        Msg& m = it->second;
        if (m.lost) {
          fail(r, ev,
               "message from rank " + std::to_string(key.src) + " seq " +
                   std::to_string(key.seq) +
                   " lost under the fault plan (retransmit budget "
                   "exhausted); the recorded receive can never complete");
        }
        charge_gap(r, st, ev);
        for (std::size_t f = 0; f < F; ++f) {
          const MsgFrame& mf = m.f[f];
          const double del = mpisim::delivery_time(
              mf.rend, mf.start, mf.wire, mf.avail, mf.post, frames_[f].rex);
          if (f == kRec && del > st.t[f] &&
              (mf.rend ? mf.start >= mf.post : mf.avail >= mf.post)) {
            parent = m.send;  // the sender's side bound the delivery
          }
          st.t[f] = std::max(st.t[f], del);
        }
        charge_overhead(r, st, &mpisim::NetworkModel::recv_overhead, ev.op, 1);
        from = m.send;
        obs_.recv_done(r, idx, post_ord, key, m);
        consume(key, m);
        break;
      }
      case EventKind::Probe: {
        const MsgKey key{ev.comm, ev.peer, r, ev.seq};
        const auto it = msgs_.find(key);
        if (it == msgs_.end() || !it->second.have_send) return Step::Blocked;
        const Msg& m = it->second;
        if (m.lost) {
          fail(r, ev,
               "probed message from rank " + std::to_string(key.src) +
                   " seq " + std::to_string(key.seq) +
                   " lost under the fault plan; the recorded probe can "
                   "never match");
        }
        charge_gap(r, st, ev);
        for (std::size_t f = 0; f < F; ++f) {
          const MsgFrame& mf = m.f[f];
          if (f == kRec &&
              (mf.rend ? mf.start >= st.t[f] : mf.avail > st.t[f])) {
            parent = m.send;
          }
          st.t[f] = mpisim::delivery_time(mf.rend, mf.start, mf.wire,
                                          mf.avail, st.t[f], frames_[f].rex);
        }
        from = m.send;
        break;
      }
      case EventKind::CollBegin: {
        charge_gap(r, st, ev);
        charge_overhead(r, st, &mpisim::NetworkModel::send_overhead, ev.op, 2);
        ++collectives;
        break;
      }
      case EventKind::CollEnd:
      case EventKind::Pcontrol:
      case EventKind::SectionEnter: {
        charge_gap(r, st, ev);
        break;
      }
      case EventKind::SectionExit: {
        charge_gap(r, st, ev);
        if (st.stack.empty()) fail(r, ev, "section exit with empty stack");
        break;
      }
      case EventKind::CommSync: {
        if (!st.sync_entered) {
          charge_gap(r, st, ev);
          st.sync_key = {ev.comm, st.sync_ordinal[ev.comm]++};
          Round& rd = syncs_[st.sync_key];
          rd.members = ev.peer;
          rd.rounds = ev.seq;
          enter(r, idx, st, rd);
          st.sync_entered = true;
          if (rd.arrived < rd.members) return Step::Progress;
        }
        const Round& rd = syncs_[st.sync_key];
        if (rd.arrived < rd.members) return Step::Blocked;
        const auto rounds = static_cast<double>(rd.rounds);
        for (std::size_t f = 0; f < F; ++f) {
          const double leave =
              mpisim::sync_leave_time(rd.max[f], rounds, *frames_[f].net);
          if (f == kRec && leave > st.t[f] && rd.latest.rank != r) {
            parent = rd.latest;
          }
          st.t[f] = std::max(st.t[f], leave);
        }
        obs_.left(r, rd);
        st.sync_entered = false;
        break;
      }
      case EventKind::Finalize: {
        charge_gap(r, st, ev);
        if (st.t[kRec] != stream.t_final) {
          fail(r, ev, "recorded-frame final time mismatch (corrupt trace?)");
        }
        final_times[static_cast<std::size_t>(r)] = st.t[kOut];
        st.done = true;
        break;
      }
      case EventKind::NbcPost: {
        charge_gap(r, st, ev);
        // Entry overhead on the collective-entry jitter stream (salt 2),
        // as Comm::nbc_post charges it.
        charge_overhead(r, st, &mpisim::NetworkModel::send_overhead, ev.op, 2);
        Round& rd = nbcs_[{ev.comm, ev.seq}];
        rd.members = ev.peer;
        rd.bytes = std::max(rd.bytes, ev.bytes);
        enter(r, idx, st, rd);
        ++collectives;
        break;
      }
      case EventKind::NbcComplete: {
        const auto it = nbcs_.find({ev.comm, ev.seq});
        if (it == nbcs_.end() || it->second.arrived < it->second.members) {
          return Step::Blocked;  // fence stalls until the post quorum
        }
        charge_gap(r, st, ev);
        Round& rd = it->second;
        for (std::size_t f = 0; f < F; ++f) {
          const Frame& fr = frames_[f];
          // Never earlier than the wait entry st.t[f].
          const double done = fr.prog.nbc_complete_time(
              st.t[f], rd.max[f], fr.net->nbc_cost(rd.members, rd.bytes));
          if (f == kRec && done > st.t[f] && rd.latest.rank != r) {
            parent = rd.latest;  // the latest poster gated the fence
          }
          st.t[f] = done;
        }
        obs_.left(r, rd);
        if (++rd.departed == rd.members) nbcs_.erase(it);
        break;
      }
    }
    // Section boundaries apply after the commit, so an enter is attributed
    // to the enclosing section and an exit to the section it closes.
    obs_.commit(r, st.t[kOut], st.stack.empty() ? nullptr : &st.stack.back(),
                parent, from);
    if (ev.kind == EventKind::SectionEnter) {
      st.stack.push_back({ev.comm, ev.label, st.t[kOut]});
      obs_.section_entered(r, st.stack.back(), st.stack.size() - 1);
    } else if (ev.kind == EventKind::SectionExit) {
      const OpenSection sec = st.stack.back();
      st.stack.pop_back();
      obs_.section_exited(r, sec, st.t[kOut], st.stack.size());
    }
    ++st.cursor;
    ++events;
    return Step::Advanced;
  }

  const TraceFile& tf_;
  Obs& obs_;
  std::array<Frame, F> frames_{};
  double gap_scale_ = 1.0;  ///< what-if compute-gap multiplier
  /// The fault plan, applied to the what-if frame only.
  std::unique_ptr<mpisim::faults::FaultEngine> faults_;
  std::vector<Rank> ranks_;
  std::unordered_map<MsgKey, Msg, MsgKeyHash> msgs_;
  std::map<RoundKey, Round> syncs_;
  std::map<RoundKey, Round> nbcs_;
};

}  // namespace mpisect::trace
