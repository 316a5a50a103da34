// Linear-scan reference for the matching engine (mpisim::Channel), used
// only by the differential tests. Two FIFOs and MPI's envelope rule
// (mpisim::envelope_matches): a deposit completes the first compatible
// posted receive in post order, a post takes the first compatible queued
// message in arrival order, and a probe reports the first compatible queued
// message without consuming it. Times follow the delivery rule Channel
// applies (mpisim::delivery_time). Scans cost O(queue) per operation, which
// is exactly why Channel does not work this way.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "mpisim/cost_rules.hpp"
#include "mpisim/message.hpp"

namespace mpisect::test {

class MatchOracle {
 public:
  explicit MatchOracle(double rendezvous_extra = 0.0)
      : extra_(rendezvous_extra) {}

  /// Sender side. A message flagged fault_lost is dropped, as Channel does.
  void deposit(const mpisim::Message& m) {
    if (m.fault_lost) return;
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      Recv& r = recvs_[*it];
      if (mpisim::envelope_matches(r.src, r.tag, m.src, m.tag)) {
        r.status = status_of(m, r.t_post);
        posted_.erase(it);
        return;
      }
    }
    unexpected_.push_back(m);
  }

  /// Receiver side. Returns the receive's id: its index in post order.
  std::size_t post(int src, int tag, double t_post) {
    const std::size_t id = recvs_.size();
    recvs_.push_back(Recv{src, tag, t_post, std::nullopt});
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (mpisim::envelope_matches(src, tag, it->src, it->tag)) {
        recvs_[id].status = status_of(*it, t_post);
        unexpected_.erase(it);
        return id;
      }
    }
    posted_.push_back(id);
    return id;
  }

  /// The envelope a probe at `t_probe` sees, or nullopt if none is queued.
  [[nodiscard]] std::optional<mpisim::Status> probe(int src, int tag,
                                                    double t_probe) const {
    for (const mpisim::Message& m : unexpected_) {
      if (mpisim::envelope_matches(src, tag, m.src, m.tag)) {
        return status_of(m, t_probe);
      }
    }
    return std::nullopt;
  }

  /// Completion of receive `id`, or nullopt while it is still posted.
  [[nodiscard]] const std::optional<mpisim::Status>& result(
      std::size_t id) const {
    return recvs_.at(id).status;
  }
  [[nodiscard]] std::size_t pending_messages() const {
    return unexpected_.size();
  }
  [[nodiscard]] std::size_t pending_recvs() const { return posted_.size(); }

 private:
  struct Recv {
    int src;
    int tag;
    double t_post;
    std::optional<mpisim::Status> status;
  };

  [[nodiscard]] mpisim::Status status_of(const mpisim::Message& m,
                                         double t_post) const {
    mpisim::Status st;
    st.source = m.src;
    st.tag = m.tag;
    st.bytes = m.bytes;
    st.seq = m.seq;
    st.t_complete = mpisim::delivery_time(m.rendezvous, m.t_send_start,
                                          m.wire_cost, m.t_avail, t_post,
                                          extra_);
    return st;
  }

  double extra_;
  std::deque<mpisim::Message> unexpected_;
  std::deque<std::size_t> posted_;  ///< ids of unmatched receives
  std::vector<Recv> recvs_;
};

}  // namespace mpisect::test
