#include "mpisim/channel.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "mpisim/cost_rules.hpp"
#include "mpisim/error.hpp"

namespace mpisect::mpisim {

Channel::~Channel() {
  // Credit back whatever never matched so the world's MemAccount drains to
  // zero when all channels die (a leak here would poison the next world's
  // high-water mark reading). Every message is on its pair list.
  for (auto& [key, list] : um_by_pair_) {
    for (MsgNode* n = list.head; n != nullptr;) {
      MsgNode* next = n->next[0];
      if (mem_ != nullptr) mem_->sub(queued_bytes(*n->msg));
      delete n;
      n = next;
    }
  }
  if (mem_ != nullptr && pr_count_ > 0) {
    mem_->sub(pr_count_ * sizeof(PostedRecv));
  }
  const auto drop_lane = [](RecvList& lane) {
    for (RecvNode* n = lane.head; n != nullptr;) {
      RecvNode* next = n->next;
      delete n;
      n = next;
    }
  };
  for (auto& [key, lane] : pr_by_pair_) drop_lane(lane);
  for (auto& [key, lane] : pr_by_src_) drop_lane(lane);
  for (auto& [key, lane] : pr_by_tag_) drop_lane(lane);
  drop_lane(pr_any_);
  for (MsgNode* n = msg_free_; n != nullptr;) {
    MsgNode* next = n->next[0];
    delete n;
    n = next;
  }
  for (RecvNode* n = recv_free_; n != nullptr;) {
    RecvNode* next = n->next;
    delete n;
    n = next;
  }
}

void Channel::complete_match(const MessagePtr& msg,
                             const PostedRecvPtr& recv) const {
  const double t_deliver =
      delivery_time(msg->rendezvous, msg->t_send_start, msg->wire_cost,
                    msg->t_avail, recv->t_post, rendezvous_extra_);

  recv->truncated = msg->bytes > recv->max_bytes;
  if (recv->buf != nullptr && !msg->payload.empty()) {
    const std::size_t n = std::min(msg->payload.size(), recv->max_bytes);
    std::memcpy(recv->buf, msg->payload.data(), n);
  }
  recv->status.source = msg->src;
  recv->status.tag = msg->tag;
  recv->status.bytes = msg->bytes;
  recv->status.t_complete = t_deliver;
  recv->status.seq = msg->seq;
  recv->completed = true;

  msg->t_deliver = t_deliver;
  msg->delivered = true;
}

void Channel::check_abort() const {
  if (abort_ != nullptr && abort_->load(std::memory_order_relaxed)) {
    throw MpiError(Err::Aborted, "world aborted while waiting in channel");
  }
}

// --- node pools ------------------------------------------------------------

Channel::MsgNode* Channel::alloc_msg_node() {
  if (msg_free_ == nullptr) return new MsgNode;
  MsgNode* n = msg_free_;
  msg_free_ = n->next[0];
  *n = MsgNode{};
  return n;
}

void Channel::free_msg_node(MsgNode* n) {
  n->msg.reset();
  n->next[0] = msg_free_;
  msg_free_ = n;
}

Channel::RecvNode* Channel::alloc_recv_node() {
  if (recv_free_ == nullptr) return new RecvNode;
  RecvNode* n = recv_free_;
  recv_free_ = n->next;
  n->next = nullptr;
  return n;
}

void Channel::free_recv_node(RecvNode* n) {
  n->recv.reset();
  n->next = recv_free_;
  recv_free_ = n;
}

// --- index lists -----------------------------------------------------------

std::array<Channel::MsgList*, 4> Channel::lists_of(const Message& m) {
  const bool user = user_tag(m.tag);
  return {&um_by_pair_[pair_key(m.src, m.tag)],
          user ? &um_by_src_[m.src] : nullptr, &um_by_tag_[m.tag],
          user ? &um_all_ : nullptr};
}

void Channel::link_msg(const MessagePtr& msg) {
  MsgNode* n = alloc_msg_node();
  n->msg = msg;
  const std::array<MsgList*, 4> lists = lists_of(*msg);
  for (int k = 0; k < 4; ++k) {
    if (lists[k] == nullptr) continue;
    n->prev[k] = lists[k]->tail;
    n->next[k] = nullptr;
    if (lists[k]->tail != nullptr) {
      lists[k]->tail->next[k] = n;
    } else {
      lists[k]->head = n;
    }
    lists[k]->tail = n;
  }
}

void Channel::unlink_msg(MsgNode* n) {
  const std::array<MsgList*, 4> lists = lists_of(*n->msg);
  for (int k = 0; k < 4; ++k) {
    if (lists[k] == nullptr) continue;
    if (n->prev[k] != nullptr) {
      n->prev[k]->next[k] = n->next[k];
    } else {
      lists[k]->head = n->next[k];
    }
    if (n->next[k] != nullptr) {
      n->next[k]->prev[k] = n->prev[k];
    } else {
      lists[k]->tail = n->prev[k];
    }
  }
}

const Message* Channel::probe_head(int src, int tag) const {
  if (src != kAnySource && tag != kAnyTag) {
    const auto it = um_by_pair_.find(pair_key(src, tag));
    return it != um_by_pair_.end() && it->second.head != nullptr
               ? it->second.head->msg.get()
               : nullptr;
  }
  if (src != kAnySource) {
    const auto it = um_by_src_.find(src);
    return it != um_by_src_.end() && it->second.head != nullptr
               ? it->second.head->msg.get()
               : nullptr;
  }
  if (tag != kAnyTag) {
    const auto it = um_by_tag_.find(tag);
    return it != um_by_tag_.end() && it->second.head != nullptr
               ? it->second.head->msg.get()
               : nullptr;
  }
  return um_all_.head != nullptr ? um_all_.head->msg.get() : nullptr;
}

// --- public operations -----------------------------------------------------

std::size_t Channel::deposit(const MessagePtr& msg) {
  const std::lock_guard lock(mu_);
  if (msg->fault_lost) {
    // Injected loss: the retransmit budget was exhausted, so the message
    // never reaches the matching engine. An eager sender proceeds unaware;
    // a rendezvous sender blocks in wait_delivered until quiescence, where
    // the checker attributes the hang to the fault plan.
    return um_count_;
  }
  // Candidate receive lanes for this (src,tag): one per wildcard class
  // (internal tags skip the two wildcard-tag lanes). Each lane's head is
  // its earliest-posted member, so the global earliest compatible receive
  // is the min post-ordinal among the heads — "first compatible in post
  // order".
  const bool user = user_tag(msg->tag);
  RecvList* lanes[4] = {nullptr, nullptr, nullptr, user ? &pr_any_ : nullptr};
  if (const auto it = pr_by_pair_.find(pair_key(msg->src, msg->tag));
      it != pr_by_pair_.end()) {
    lanes[0] = &it->second;
  }
  if (user) {
    if (const auto it = pr_by_src_.find(msg->src); it != pr_by_src_.end()) {
      lanes[1] = &it->second;
    }
  }
  if (const auto it = pr_by_tag_.find(msg->tag); it != pr_by_tag_.end()) {
    lanes[2] = &it->second;
  }
  RecvList* best = nullptr;
  for (RecvList* lane : lanes) {
    if (lane != nullptr && lane->head != nullptr &&
        (best == nullptr || lane->head->ord < best->head->ord)) {
      best = lane;
    }
  }
  if (best != nullptr) {
    RecvNode* n = best->head;
    best->head = n->next;
    if (best->head == nullptr) best->tail = nullptr;
    complete_match(msg, n->recv);
    free_recv_node(n);
    --pr_count_;
    if (mem_ != nullptr) mem_->sub(sizeof(PostedRecv));
    wp_.notify_all();
    return 0;
  }
  link_msg(msg);
  ++um_count_;
  if (mem_ != nullptr) mem_->add(queued_bytes(*msg));
  // Wake probers waiting for a matching envelope.
  wp_.notify_all();
  return um_count_;
}

std::size_t Channel::post(const PostedRecvPtr& recv) {
  const std::lock_guard lock(mu_);
  // The receive's wildcard class picks the one message index whose head is
  // the earliest-arrival compatible message (every index list preserves
  // arrival order).
  MsgList* lane = nullptr;
  if (recv->src != kAnySource && recv->tag != kAnyTag) {
    if (const auto it = um_by_pair_.find(pair_key(recv->src, recv->tag));
        it != um_by_pair_.end()) {
      lane = &it->second;
    }
  } else if (recv->src != kAnySource) {
    if (const auto it = um_by_src_.find(recv->src); it != um_by_src_.end()) {
      lane = &it->second;
    }
  } else if (recv->tag != kAnyTag) {
    if (const auto it = um_by_tag_.find(recv->tag); it != um_by_tag_.end()) {
      lane = &it->second;
    }
  } else {
    lane = &um_all_;
  }
  if (lane != nullptr && lane->head != nullptr) {
    MsgNode* n = lane->head;
    if (mem_ != nullptr) mem_->sub(queued_bytes(*n->msg));
    complete_match(n->msg, recv);
    unlink_msg(n);
    free_msg_node(n);
    --um_count_;
    wp_.notify_all();
    return 0;
  }
  RecvNode* n = alloc_recv_node();
  n->recv = recv;
  n->ord = pr_ord_++;
  RecvList* dest = nullptr;
  if (recv->src != kAnySource && recv->tag != kAnyTag) {
    dest = &pr_by_pair_[pair_key(recv->src, recv->tag)];
  } else if (recv->src != kAnySource) {
    dest = &pr_by_src_[recv->src];
  } else if (recv->tag != kAnyTag) {
    dest = &pr_by_tag_[recv->tag];
  } else {
    dest = &pr_any_;
  }
  if (dest->tail != nullptr) {
    dest->tail->next = n;
  } else {
    dest->head = n;
  }
  dest->tail = n;
  ++pr_count_;
  if (mem_ != nullptr) mem_->add(sizeof(PostedRecv));
  return pr_count_;
}

Status Channel::wait_recv(const PostedRecvPtr& recv) {
  std::unique_lock lock(mu_);
  while (!recv->completed) {
    check_abort();
    wp_.wait(lock);
  }
  if (recv->truncated) {
    throw MpiError(Err::Truncate, "message longer than receive buffer");
  }
  return recv->status;
}

bool Channel::test_recv(const PostedRecvPtr& recv) {
  const std::lock_guard lock(mu_);
  return recv->completed;
}

bool Channel::test_send(const MessagePtr& msg) {
  const std::lock_guard lock(mu_);
  return !msg->rendezvous || msg->delivered;
}

void Channel::park_recv_incomplete(const PostedRecvPtr& recv) {
  std::unique_lock lock(mu_);
  // Predicate checked under the same lock the park registers under, so a
  // completion between the caller's failed test and this park cannot be a
  // lost wake — it either flips `completed` before we check, or notifies
  // after the WaitPoint registration.
  if (recv->completed) return;
  check_abort();
  wp_.wait(lock);
  check_abort();
}

void Channel::park_send_incomplete(const MessagePtr& msg) {
  std::unique_lock lock(mu_);
  if (!msg->rendezvous || msg->delivered) return;
  check_abort();
  wp_.wait(lock);
  check_abort();
}

double Channel::wait_delivered(const MessagePtr& msg) {
  std::unique_lock lock(mu_);
  while (!msg->delivered) {
    check_abort();
    wp_.wait(lock);
  }
  return msg->t_deliver;
}

Status Channel::probe(int src, int tag, double t_probe) {
  std::unique_lock lock(mu_);
  for (;;) {
    const Message* found = probe_head(src, tag);
    if (found != nullptr) {
      Status st;
      st.source = found->src;
      st.tag = found->tag;
      st.bytes = found->bytes;
      st.seq = found->seq;
      // Completion time of a hypothetical receive posted at t_probe —
      // the same delivery rule complete_match applies. In particular a
      // rendezvous message still pays its wire cost; reporting
      // max(t_send_start, t_probe) alone would claim availability earlier
      // than any matching recv could ever complete.
      st.t_complete =
          delivery_time(found->rendezvous, found->t_send_start,
                        found->wire_cost, found->t_avail, t_probe,
                        rendezvous_extra_);
      return st;
    }
    check_abort();
    wp_.wait(lock);
  }
}

std::size_t Channel::pending_messages() {
  const std::lock_guard lock(mu_);
  return um_count_;
}

std::size_t Channel::pending_recvs() {
  const std::lock_guard lock(mu_);
  return pr_count_;
}

}  // namespace mpisect::mpisim
