// Direct unit tests of the matching engine (Channel) — below the Comm
// layer, exercising matching rules and virtual-time math in isolation.
// Channels block through an Executor; these tests use the thread backend
// so plain test threads can poke at the channel from outside a World.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "match_oracle.hpp"
#include "mpisim/channel.hpp"
#include "mpisim/error.hpp"
#include "mpisim/scheduler.hpp"
#include "support/rng.hpp"

namespace {

using namespace mpisect::mpisim;

struct ChannelFixture {
  std::atomic<bool> abort{false};
  std::unique_ptr<Executor> exec =
      make_executor({.backend = ExecBackend::Threads});
  Channel ch{*exec, &abort};
};

MessagePtr make_msg(int src, int tag, double t_send, double cost,
                    bool rendezvous = false, std::size_t bytes = 8) {
  auto msg = std::make_shared<Message>();
  msg->src = src;
  msg->tag = tag;
  msg->bytes = bytes;
  msg->t_send_start = t_send;
  msg->wire_cost = cost;
  msg->t_avail = t_send + cost;
  msg->rendezvous = rendezvous;
  return msg;
}

PostedRecvPtr make_recv(int src, int tag, double t_post,
                        std::size_t max_bytes = 64) {
  auto pr = std::make_shared<PostedRecv>();
  pr->src = src;
  pr->tag = tag;
  pr->t_post = t_post;
  pr->max_bytes = max_bytes;
  return pr;
}

TEST(Channel, DepositThenPostMatches) {
  ChannelFixture f;
  f.ch.deposit(make_msg(0, 5, 1.0, 0.25));
  EXPECT_EQ(f.ch.pending_messages(), 1u);
  auto pr = make_recv(0, 5, 2.0);
  f.ch.post(pr);
  EXPECT_EQ(f.ch.pending_messages(), 0u);
  const Status st = f.ch.wait_recv(pr);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 5);
  // Eager: delivery at max(t_post, t_avail) = max(2.0, 1.25) = 2.0.
  EXPECT_DOUBLE_EQ(st.t_complete, 2.0);
}

TEST(Channel, PostThenDepositMatches) {
  ChannelFixture f;
  auto pr = make_recv(0, 5, 0.5);
  f.ch.post(pr);
  EXPECT_EQ(f.ch.pending_recvs(), 1u);
  f.ch.deposit(make_msg(0, 5, 1.0, 0.25));
  EXPECT_EQ(f.ch.pending_recvs(), 0u);
  // Receiver was early: delivery at t_avail = 1.25.
  EXPECT_DOUBLE_EQ(f.ch.wait_recv(pr).t_complete, 1.25);
}

TEST(Channel, RendezvousDeliveryFromMatchPoint) {
  ChannelFixture f;
  auto msg = make_msg(0, 1, 1.0, 0.5, /*rendezvous=*/true);
  f.ch.deposit(msg);
  auto pr = make_recv(0, 1, 3.0);
  f.ch.post(pr);
  // Rendezvous: transfer starts at max(t_send, t_post) = 3.0 -> 3.5.
  EXPECT_DOUBLE_EQ(f.ch.wait_recv(pr).t_complete, 3.5);
  EXPECT_DOUBLE_EQ(f.ch.wait_delivered(msg), 3.5);
}

TEST(Channel, TagFiltering) {
  ChannelFixture f;
  f.ch.deposit(make_msg(0, 1, 1.0, 0.1));
  f.ch.deposit(make_msg(0, 2, 1.0, 0.1));
  auto pr = make_recv(0, 2, 1.0);
  f.ch.post(pr);
  EXPECT_EQ(f.ch.wait_recv(pr).tag, 2);
  EXPECT_EQ(f.ch.pending_messages(), 1u);  // the tag-1 message remains
}

TEST(Channel, WildcardsMatchFirstArrived) {
  ChannelFixture f;
  f.ch.deposit(make_msg(3, 7, 1.0, 0.1));
  f.ch.deposit(make_msg(1, 9, 1.0, 0.1));
  auto pr = make_recv(kAnySource, kAnyTag, 1.0);
  f.ch.post(pr);
  const Status st = f.ch.wait_recv(pr);
  EXPECT_EQ(st.source, 3);  // queue order
  EXPECT_EQ(st.tag, 7);
}

TEST(Channel, PostedRecvOrderRespected) {
  ChannelFixture f;
  auto pr1 = make_recv(0, kAnyTag, 1.0);
  auto pr2 = make_recv(0, kAnyTag, 2.0);
  f.ch.post(pr1);
  f.ch.post(pr2);
  f.ch.deposit(make_msg(0, 4, 0.0, 0.1));
  EXPECT_TRUE(f.ch.test_recv(pr1));   // earliest posted matches first
  EXPECT_FALSE(f.ch.test_recv(pr2));
}

TEST(Channel, PayloadCopiedOnMatch) {
  ChannelFixture f;
  auto msg = make_msg(0, 0, 0.0, 0.0, false, 4);
  const std::byte payload[4] = {std::byte{1}, std::byte{2}, std::byte{3},
                                std::byte{4}};
  msg->payload.assign(payload, payload + 4);
  f.ch.deposit(msg);
  std::byte out[4] = {};
  auto pr = make_recv(0, 0, 0.0);
  pr->buf = out;
  pr->max_bytes = 4;
  f.ch.post(pr);
  f.ch.wait_recv(pr);
  EXPECT_EQ(out[3], std::byte{4});
}

TEST(Channel, TruncationFlaggedAtWait) {
  ChannelFixture f;
  f.ch.deposit(make_msg(0, 0, 0.0, 0.0, false, /*bytes=*/128));
  auto pr = make_recv(0, 0, 0.0, /*max_bytes=*/16);
  f.ch.post(pr);
  EXPECT_THROW(f.ch.wait_recv(pr), MpiError);
}

TEST(Channel, ProbeDoesNotConsume) {
  ChannelFixture f;
  f.ch.deposit(make_msg(2, 6, 1.0, 0.5));
  const Status st = f.ch.probe(2, 6, 0.0);
  EXPECT_EQ(st.bytes, 8u);
  EXPECT_DOUBLE_EQ(st.t_complete, 1.5);  // availability
  EXPECT_EQ(f.ch.pending_messages(), 1u);
}

TEST(Channel, RendezvousProbeMatchesRecvDeliveryModel) {
  // Regression: probe used to report max(t_send_start, t_probe) for a
  // rendezvous message — earlier than any matching recv could complete,
  // because complete_match charges the wire after the handshake. A probe
  // at time t must report what a recv posted at t would see.
  ChannelFixture f;
  f.ch.deposit(make_msg(0, 1, 1.0, 0.5, /*rendezvous=*/true));
  const Status probed = f.ch.probe(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(probed.t_complete, 3.5);  // max(1.0, 3.0) + 0.5

  auto pr = make_recv(0, 1, 3.0);
  f.ch.post(pr);
  EXPECT_DOUBLE_EQ(f.ch.wait_recv(pr).t_complete, probed.t_complete);
}

TEST(Channel, ProbeThenRecvNeverEarlierThanDirectRecv) {
  // Probe-then-recv completes at the recv's own delivery time, which can
  // never undercut a direct recv posted at the probe time (rendezvous pays
  // the wire twice — once hypothetically at probe, once for real).
  for (const bool rendezvous : {false, true}) {
    ChannelFixture direct;
    direct.ch.deposit(make_msg(0, 1, 1.0, 0.5, rendezvous));
    auto pr_direct = make_recv(0, 1, 3.0);
    direct.ch.post(pr_direct);
    const double t_direct = direct.ch.wait_recv(pr_direct).t_complete;

    ChannelFixture probed;
    probed.ch.deposit(make_msg(0, 1, 1.0, 0.5, rendezvous));
    const Status st = probed.ch.probe(0, 1, 3.0);
    auto pr = make_recv(0, 1, st.t_complete);  // recv after the probe
    probed.ch.post(pr);
    const double t_probed = probed.ch.wait_recv(pr).t_complete;

    EXPECT_GE(t_probed, t_direct);
    if (!rendezvous) {
      // Eager availability is a property of the message alone, so probing
      // first costs nothing.
      EXPECT_DOUBLE_EQ(t_probed, t_direct);
    }
  }
}

TEST(Channel, ProbeAnySourceAnyTagEarliestQueuedWins) {
  ChannelFixture f;
  f.ch.deposit(make_msg(3, 7, 1.0, 0.1));
  f.ch.deposit(make_msg(1, 9, 0.5, 0.1));
  const Status st = f.ch.probe(kAnySource, kAnyTag, 2.0);
  // Queue order decides, not timestamps: the (3, 7) message arrived first.
  EXPECT_EQ(st.source, 3);
  EXPECT_EQ(st.tag, 7);
  EXPECT_EQ(f.ch.pending_messages(), 2u);
  // A wildcard recv agrees with what the probe reported.
  auto pr = make_recv(kAnySource, kAnyTag, 2.0);
  f.ch.post(pr);
  const Status recv_st = f.ch.wait_recv(pr);
  EXPECT_EQ(recv_st.source, st.source);
  EXPECT_EQ(recv_st.tag, st.tag);
  EXPECT_DOUBLE_EQ(recv_st.t_complete, st.t_complete);
}

TEST(Channel, AbortWakesBlockedWaiter) {
  ChannelFixture f;
  auto pr = make_recv(0, 0, 0.0);
  f.ch.post(pr);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    f.abort.store(true);
    f.exec->wake_all();  // no polling: abort must wake waiters explicitly
  });
  EXPECT_THROW(f.ch.wait_recv(pr), MpiError);
  killer.join();
}

TEST(Channel, AbortWakesRendezvousSender) {
  ChannelFixture f;
  auto msg = make_msg(0, 0, 0.0, 1.0, /*rendezvous=*/true);
  f.ch.deposit(msg);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    f.abort.store(true);
    f.exec->wake_all();
  });
  EXPECT_THROW((void)f.ch.wait_delivered(msg), MpiError);
  killer.join();
}

TEST(Channel, WildcardTagNeverSeesInternalTraffic) {
  // Collective-internal messages live in their own context: only a receive
  // or probe naming the internal tag may match them.
  ChannelFixture f;
  auto any_any = make_recv(kAnySource, kAnyTag, 1.0);
  auto src_any = make_recv(0, kAnyTag, 1.0);
  f.ch.post(any_any);
  f.ch.post(src_any);
  f.ch.deposit(make_msg(0, kInternalTagBase, 1.0, 0.1));
  EXPECT_FALSE(f.ch.test_recv(any_any));
  EXPECT_FALSE(f.ch.test_recv(src_any));
  EXPECT_EQ(f.ch.pending_messages(), 1u);
  f.abort.store(true);  // an unmatched probe throws instead of parking
  EXPECT_THROW((void)f.ch.probe(kAnySource, kAnyTag, 2.0), MpiError);
  EXPECT_THROW((void)f.ch.probe(0, kAnyTag, 2.0), MpiError);
  f.abort.store(false);
  EXPECT_EQ(f.ch.probe(kAnySource, kInternalTagBase, 2.0).source, 0);
  auto internal = make_recv(0, kInternalTagBase, 2.0);
  f.ch.post(internal);
  EXPECT_TRUE(f.ch.test_recv(internal));
  f.ch.deposit(make_msg(0, 5, 1.0, 0.1));
  EXPECT_TRUE(f.ch.test_recv(any_any));  // user traffic still matches
  EXPECT_EQ(f.ch.pending_messages(), 0u);
}

// ---------------------------------------------------------------------------
// Channel against the linear-scan oracle (match_oracle.hpp)
// ---------------------------------------------------------------------------

/// Feeds one history to a Channel and to the oracle and compares them.
struct EngineFixture {
  std::atomic<bool> abort{false};
  std::unique_ptr<Executor> exec =
      make_executor({.backend = ExecBackend::Threads});
  Channel ch{*exec, &abort};
  mpisect::test::MatchOracle oracle;
  std::vector<PostedRecvPtr> recvs;  ///< the Channel's, in post order

  PostedRecvPtr post(int src, int tag, double t_post) {
    recvs.push_back(make_recv(src, tag, t_post));
    ch.post(recvs.back());
    (void)oracle.post(src, tag, t_post);
    return recvs.back();
  }
  void deposit(const MessagePtr& msg) {
    oracle.deposit(*msg);
    ch.deposit(msg);
  }
  /// The channel's probe, or nullopt where it would park for a message.
  std::optional<Status> channel_probe(int src, int tag, double t) {
    abort.store(true);  // an unmatched probe throws instead of parking
    std::optional<Status> got;
    try {
      got = ch.probe(src, tag, t);
    } catch (const MpiError&) {
    }
    abort.store(false);
    return got;
  }
  void expect_probe_agrees(int src, int tag, double t,
                           const std::string& where) {
    const std::optional<Status> want = oracle.probe(src, tag, t);
    const std::optional<Status> got = channel_probe(src, tag, t);
    ASSERT_EQ(got.has_value(), want.has_value()) << where;
    if (want) expect_same(*got, *want, where);
  }
  void expect_agree(const std::string& where) {
    EXPECT_EQ(ch.pending_messages(), oracle.pending_messages()) << where;
    EXPECT_EQ(ch.pending_recvs(), oracle.pending_recvs()) << where;
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      const std::optional<Status>& want = oracle.result(i);
      const std::string at = where + " recv " + std::to_string(i);
      ASSERT_EQ(ch.test_recv(recvs[i]), want.has_value()) << at;
      if (want) expect_same(ch.wait_recv(recvs[i]), *want, at);
    }
  }
  static void expect_same(const Status& a, const Status& b,
                          const std::string& where) {
    EXPECT_EQ(a.source, b.source) << where;
    EXPECT_EQ(a.tag, b.tag) << where;
    EXPECT_EQ(a.bytes, b.bytes) << where;
    EXPECT_EQ(a.seq, b.seq) << where;
    EXPECT_EQ(a.t_complete, b.t_complete) << where;
  }
};

// A deposit must take the minimum post ordinal ACROSS wildcard lanes, not
// just the head of its exact-(src,tag) lane — post order is global.
TEST(ChannelEngines, WildcardLanesRespectGlobalPostOrder) {
  EngineFixture f;
  auto any_any = f.post(kAnySource, kAnyTag, 1.0);  // ordinal 0
  auto exact = f.post(2, 5, 1.0);                   // ordinal 1
  auto any_tag = f.post(kAnySource, 5, 1.0);        // ordinal 2
  f.deposit(make_msg(2, 5, 0.0, 0.1));  // compatible with all three
  EXPECT_TRUE(f.ch.test_recv(any_any));  // earliest ordinal wins
  EXPECT_FALSE(f.ch.test_recv(exact));
  EXPECT_FALSE(f.ch.test_recv(any_tag));
  f.deposit(make_msg(2, 5, 0.0, 0.1));
  EXPECT_TRUE(f.ch.test_recv(exact));  // then post order again
  EXPECT_FALSE(f.ch.test_recv(any_tag));
  f.deposit(make_msg(2, 5, 0.0, 0.1));
  EXPECT_TRUE(f.ch.test_recv(any_tag));
  f.expect_agree("lanes");
}

// A (src, ANY) receive must find the earliest-ARRIVAL message from that
// source even when other sources' messages interleave the queue.
TEST(ChannelEngines, SourceWildcardFindsEarliestArrivalFromSource) {
  EngineFixture f;
  f.deposit(make_msg(1, 10, 1.0, 0.1));
  f.deposit(make_msg(2, 20, 1.0, 0.1));
  f.deposit(make_msg(1, 30, 1.0, 0.1));
  auto pr = f.post(1, kAnyTag, 2.0);
  EXPECT_EQ(f.ch.wait_recv(pr).tag, 10);  // first arrival from source 1
  auto pr2 = f.post(1, kAnyTag, 2.0);
  EXPECT_EQ(f.ch.wait_recv(pr2).tag, 30);
  EXPECT_EQ(f.ch.pending_messages(), 1u);  // source 2 untouched
  f.expect_agree("source wildcard");
}

TEST(ChannelEngines, ProbeSeesEarliestCompatibleInBothEngines) {
  EngineFixture f;
  f.deposit(make_msg(4, 1, 1.0, 0.1));
  f.deposit(make_msg(3, 1, 0.5, 0.1));
  const std::optional<Status> by_tag = f.channel_probe(kAnySource, 1, 2.0);
  ASSERT_TRUE(by_tag.has_value());
  EXPECT_EQ(by_tag->source, 4);  // arrival order, not timestamps
  const std::optional<Status> by_src = f.channel_probe(3, kAnyTag, 2.0);
  ASSERT_TRUE(by_src.has_value());
  EXPECT_EQ(by_src->source, 3);
  for (const int src : {kAnySource, 3, 4, 5}) {
    for (const int tag : {kAnyTag, 1, 2}) {
      f.expect_probe_agrees(src, tag, 2.0,
                            "probe " + std::to_string(src) + "," +
                                std::to_string(tag));
    }
  }
  f.expect_agree("probe");
}

// Randomized differential: any interleaving of deposits (user and
// collective-internal tags, eager and rendezvous, some lost to injected
// faults), posts and probes of all four wildcard classes must match the
// oracle exactly: which message each receive takes, its completion time,
// every probe's answer and the leftover queues.
TEST(ChannelEngines, RandomizedHistoriesAgree) {
  const mpisect::support::CounterRng rng(0xD1FF);
  std::uint64_t ctr = 0;
  const auto draw = [&](std::uint64_t stream, std::uint64_t n) {
    return static_cast<int>(rng.below(stream, ctr++, n));
  };
  const int tags[] = {0, 1, 2, kInternalTagBase, kInternalTagBase + 1};
  int classes[4] = {};  // posts and probes per wildcard class
  int lost = 0;
  int internal_matches = 0;
  int probe_hits = 0;
  for (int round = 0; round < 200; ++round) {
    EngineFixture f;
    for (int op = 0; op < 60; ++op) {
      const std::string where =
          "round " + std::to_string(round) + " op " + std::to_string(op);
      const int kind = draw(0, 5);  // 0-1 deposit, 2-3 post, 4 probe
      const int src = draw(1, 4);
      const int tag = tags[draw(2, 5)];
      const double t = 0.25 * static_cast<double>(op);
      if (kind < 2) {
        const double cost = 0.125 * (1 + draw(3, 4));
        const bool rendezvous = draw(4, 3) == 0;
        auto msg = make_msg(src, tag, t, cost, rendezvous);
        msg->seq = static_cast<std::uint64_t>(op);
        msg->fault_lost = draw(5, 8) == 0;
        lost += msg->fault_lost ? 1 : 0;
        f.deposit(msg);
      } else {
        const bool any_src = draw(6, 3) == 0;
        const bool any_tag = draw(7, 3) == 0;
        ++classes[(any_src ? 2 : 0) + (any_tag ? 1 : 0)];
        const int post_src = any_src ? kAnySource : src;
        const int post_tag = any_tag ? kAnyTag : tag;
        if (kind < 4) {
          (void)f.post(post_src, post_tag, t);
        } else {
          probe_hits += f.oracle.probe(post_src, post_tag, t) ? 1 : 0;
          f.expect_probe_agrees(post_src, post_tag, t, where);
        }
      }
      ASSERT_EQ(f.ch.pending_messages(), f.oracle.pending_messages())
          << where;
      ASSERT_EQ(f.ch.pending_recvs(), f.oracle.pending_recvs()) << where;
    }
    f.expect_agree("round " + std::to_string(round));
    for (std::size_t i = 0; i < f.recvs.size(); ++i) {
      const auto& st = f.oracle.result(i);
      internal_matches += st && st->tag >= kInternalTagBase ? 1 : 0;
    }
  }
  // The histories exercise what they claim to.
  for (const int n : classes) EXPECT_GT(n, 0);
  EXPECT_GT(lost, 0);
  EXPECT_GT(internal_matches, 0);
  EXPECT_GT(probe_hits, 0);
}

}  // namespace
