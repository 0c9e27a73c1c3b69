// src/net/ tests (DESIGN.md §13): message codec, stream framing under
// adversarial read boundaries, socketpair round-trips, transport backends,
// the control plane, and the headline end-to-end property — WC/HS/HJ over a
// TCP loopback shuffle reproduce the inproc fingerprints bit-for-bit, with
// and without node faults.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "apps/hyracks_apps.h"
#include "cluster/failure_model.h"
#include "io/frame_codec.h"
#include "itask/recovery.h"
#include "itask/typed_partition.h"
#include "memsim/managed_heap.h"
#include "net/ctrl.h"
#include "net/fault_engine.h"
#include "net/frame_socket.h"
#include "net/job_wire.h"
#include "net/message.h"
#include "net/metrics_wire.h"
#include "net/shuffle_fabric.h"
#include "net/transport.h"
#include "obs/event.h"
#include "obs/histogram.h"
#include "serde/spill_manager.h"

namespace itask::net {
namespace {

common::ByteBuffer MakePayload(std::size_t n, std::uint8_t seed) {
  common::ByteBuffer buf;
  buf.bytes().resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf.bytes()[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return buf;
}

// One frame's wire bytes: [u32 LE length][FrameCodec frame].
std::vector<std::uint8_t> WireFrame(const common::ByteBuffer& payload) {
  common::ByteBuffer framed;
  io::FrameCodec::Encode(payload, &framed);
  const auto len = static_cast<std::uint32_t>(framed.size());
  std::vector<std::uint8_t> wire(4 + framed.size());
  wire[0] = static_cast<std::uint8_t>(len & 0xff);
  wire[1] = static_cast<std::uint8_t>((len >> 8) & 0xff);
  wire[2] = static_cast<std::uint8_t>((len >> 16) & 0xff);
  wire[3] = static_cast<std::uint8_t>((len >> 24) & 0xff);
  std::memcpy(wire.data() + 4, framed.data(), framed.size());
  return wire;
}

// ---- Message codec ----

TEST(MessageCodec, RoundTripsAllFields) {
  Message msg;
  msg.kind = MsgKind::kShuffleData;
  msg.src = kDriverEndpoint;
  msg.dst = 3;
  msg.split = 123456789;
  msg.epoch = 7;
  msg.seq = 0xdeadbeefcafeULL;
  msg.type = 42;
  msg.tag = 99;
  msg.a = 1;
  msg.b = 2;
  msg.c = 3;
  msg.text = "WC";
  msg.payload = MakePayload(257, 5);

  common::ByteBuffer wire;
  EncodeMessage(msg, &wire);
  Message back = DecodeMessage(&wire);

  EXPECT_EQ(back.kind, msg.kind);
  EXPECT_EQ(back.src, msg.src);
  EXPECT_EQ(back.dst, msg.dst);
  EXPECT_EQ(back.split, msg.split);
  EXPECT_EQ(back.epoch, msg.epoch);
  EXPECT_EQ(back.seq, msg.seq);
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.tag, msg.tag);
  EXPECT_EQ(back.a, msg.a);
  EXPECT_EQ(back.text, msg.text);
  ASSERT_EQ(back.payload.size(), msg.payload.size());
  EXPECT_EQ(std::memcmp(back.payload.data(), msg.payload.data(), msg.payload.size()), 0);
}

TEST(MessageCodec, DecodesConcatenatedStream) {
  common::ByteBuffer wire;
  for (int i = 0; i < 10; ++i) {
    Message msg;
    msg.kind = i % 2 == 0 ? MsgKind::kShuffleData : MsgKind::kShuffleAck;
    msg.seq = static_cast<std::uint64_t>(i);
    msg.payload = MakePayload(static_cast<std::size_t>(i * 13), 9);
    EncodeMessage(msg, &wire);
  }
  for (int i = 0; i < 10; ++i) {
    const Message back = DecodeMessage(&wire);
    EXPECT_EQ(back.seq, static_cast<std::uint64_t>(i));
  }
  EXPECT_TRUE(wire.AtEnd());
}

TEST(MessageCodec, ThrowsOnTruncation) {
  Message msg;
  msg.payload = MakePayload(100, 1);
  common::ByteBuffer wire;
  EncodeMessage(msg, &wire);
  common::ByteBuffer cut;
  cut.Append(wire.data(), wire.size() / 2);
  EXPECT_THROW(DecodeMessage(&cut), std::runtime_error);
}

TEST(JobWire, JobSpecRoundTrips) {
  JobSpec spec;
  spec.nodes = 3;
  spec.heap_kb = 12345;
  spec.dataset_kb = 777;
  spec.tpch_scale = 1.25;
  spec.max_workers = 9;
  spec.granularity_bytes = 4096;
  spec.seed = 1234567;
  spec.deadline_ms = 2500.0;
  spec.fault_tolerance = true;
  common::ByteBuffer wire;
  EncodeJobSpec(spec, &wire);
  const JobSpec back = DecodeJobSpec(&wire);
  EXPECT_EQ(back.nodes, spec.nodes);
  EXPECT_EQ(back.heap_kb, spec.heap_kb);
  EXPECT_EQ(back.dataset_kb, spec.dataset_kb);
  EXPECT_DOUBLE_EQ(back.tpch_scale, spec.tpch_scale);
  EXPECT_EQ(back.max_workers, spec.max_workers);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_TRUE(back.fault_tolerance);
}

// ---- FrameReader: adversarial stream boundaries ----

TEST(FrameReader, EmitsFramesFedOneByteAtATime) {
  std::vector<common::ByteBuffer> payloads;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 5; ++i) {
    payloads.push_back(MakePayload(static_cast<std::size_t>(1 + i * 97), 3 * i));
    const auto wire = WireFrame(payloads.back());
    stream.insert(stream.end(), wire.begin(), wire.end());
  }

  FrameReader reader;
  std::size_t emitted = 0;
  common::ByteBuffer out;
  for (const std::uint8_t byte : stream) {
    reader.Feed(&byte, 1);
    while (reader.Next(&out)) {
      ASSERT_LT(emitted, payloads.size());
      ASSERT_EQ(out.size(), payloads[emitted].size());
      EXPECT_EQ(std::memcmp(out.data(), payloads[emitted].data(), out.size()), 0);
      ++emitted;
    }
  }
  EXPECT_EQ(emitted, payloads.size());
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(FrameReader, EmitsFramesAcrossEverySplitPoint) {
  // One frame split at every possible boundary: prefix/frame straddles
  // included. Each split must yield exactly one identical payload.
  const common::ByteBuffer payload = MakePayload(73, 11);
  const auto wire = WireFrame(payload);
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    FrameReader reader;
    common::ByteBuffer out;
    reader.Feed(wire.data(), split);
    const bool early = reader.Next(&out);
    if (split < wire.size()) {
      ASSERT_FALSE(early) << "split " << split;
      reader.Feed(wire.data() + split, wire.size() - split);
    }
    ASSERT_TRUE(early || reader.Next(&out)) << "split " << split;
    ASSERT_EQ(out.size(), payload.size());
    EXPECT_EQ(std::memcmp(out.data(), payload.data(), out.size()), 0);
    EXPECT_FALSE(reader.Next(&out));
  }
}

TEST(FrameReader, ShortReadReturnsFalseUntilComplete) {
  const auto wire = WireFrame(MakePayload(256, 1));
  FrameReader reader;
  common::ByteBuffer out;
  reader.Feed(wire.data(), 3);  // Not even a full length prefix.
  EXPECT_FALSE(reader.Next(&out));
  reader.Feed(wire.data() + 3, wire.size() - 4);  // All but the last byte.
  EXPECT_FALSE(reader.Next(&out));
  reader.Feed(wire.data() + wire.size() - 1, 1);
  EXPECT_TRUE(reader.Next(&out));
}

TEST(FrameReader, ThrowsOnCorruptChecksum) {
  auto wire = WireFrame(MakePayload(128, 7));
  wire[wire.size() - 1] ^= 0x01;  // Flip one payload bit.
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  common::ByteBuffer out;
  EXPECT_THROW(reader.Next(&out), std::runtime_error);
}

TEST(FrameReader, ThrowsOnOversizedLengthPrefix) {
  const std::uint32_t bogus = kMaxFrameBytes + 1;
  std::uint8_t prefix[4];
  std::memcpy(prefix, &bogus, 4);
  FrameReader reader;
  reader.Feed(prefix, 4);
  common::ByteBuffer out;
  EXPECT_THROW(reader.Next(&out), std::runtime_error);
}

TEST(FrameReader, ThrowsOnZeroLengthPrefix) {
  const std::uint32_t zero = 0;
  FrameReader reader;
  reader.Feed(&zero, 4);
  common::ByteBuffer out;
  EXPECT_THROW(reader.Next(&out), std::runtime_error);
}

// ---- FrameSocket: property test over a real socketpair ----

TEST(FrameSocket, SocketpairRoundTripsRandomPayloads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameSocket tx(fds[0]);
  FrameSocket rx(fds[1]);

  std::mt19937_64 rng(20260809);
  std::vector<common::ByteBuffer> sent;
  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    const std::size_t n = static_cast<std::size_t>(rng() % 8192);
    sent.push_back(MakePayload(n, static_cast<std::uint8_t>(rng())));
  }

  // Writer thread so large frames can't deadlock against a full socket
  // buffer (the reader drains concurrently).
  std::thread writer([&tx, &sent]() {
    for (const auto& p : sent) {
      ASSERT_TRUE(tx.SendFrame(p));
    }
    tx.Close();  // EOF for the reader after the last frame.
  });

  common::ByteBuffer out;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(rx.RecvFrame(&out)) << "frame " << i;
    ASSERT_EQ(out.size(), sent[static_cast<std::size_t>(i)].size()) << "frame " << i;
    EXPECT_EQ(std::memcmp(out.data(), sent[static_cast<std::size_t>(i)].data(), out.size()),
              0)
        << "frame " << i;
  }
  EXPECT_FALSE(rx.RecvFrame(&out));  // Clean EOF.
  writer.join();
}

// ---- Transport backends ----

TEST(Transport, ParseKindNames) {
  EXPECT_EQ(ParseTransportKind("inproc"), TransportKind::kInproc);
  EXPECT_EQ(ParseTransportKind("tcp"), TransportKind::kTcp);
  EXPECT_EQ(ParseTransportKind("uds"), TransportKind::kUds);
  EXPECT_EQ(ParseTransportKind("unix"), TransportKind::kUds);
  EXPECT_FALSE(ParseTransportKind("smoke-signals").has_value());
}

TEST(Transport, InprocDeliversSynchronously) {
  NetConfig config;
  config.kind = TransportKind::kInproc;
  auto transport = MakeTransport(config);
  std::atomic<int> got{0};
  transport->RegisterEndpoint(0, [&got](Message&& m) {
    EXPECT_EQ(m.seq, 7u);
    got.fetch_add(1);
  });
  Message msg;
  msg.kind = MsgKind::kHeartbeat;
  msg.dst = 0;
  msg.seq = 7;
  EXPECT_TRUE(transport->Send(std::move(msg)));
  EXPECT_EQ(got.load(), 1);  // Synchronous: done before Send returns.
  EXPECT_EQ(transport->Stats().msgs_sent, 1u);
}

class SocketTransportTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(SocketTransportTest, DeliversBatchesAndKeepsPayloadsIntact) {
  NetConfig config;
  config.kind = GetParam();
  auto transport = MakeTransport(config);

  constexpr int kMsgs = 500;
  std::atomic<int> received{0};
  std::atomic<int> corrupt{0};
  transport->RegisterEndpoint(2, [&](Message&& m) {
    const auto expect = MakePayload(64, static_cast<std::uint8_t>(m.seq));
    if (m.payload.size() != expect.size() ||
        std::memcmp(m.payload.data(), expect.data(), expect.size()) != 0) {
      corrupt.fetch_add(1);
    }
    received.fetch_add(1);
  });

  for (int i = 0; i < kMsgs; ++i) {
    Message msg;
    msg.kind = MsgKind::kShuffleData;
    msg.src = kDriverEndpoint;
    msg.dst = 2;
    msg.seq = static_cast<std::uint64_t>(i);
    msg.payload = MakePayload(64, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(transport->Send(std::move(msg)));
  }
  transport->Flush();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received.load() < kMsgs && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received.load(), kMsgs);
  EXPECT_EQ(corrupt.load(), 0);

  const TransportStats stats = transport->Stats();
  EXPECT_EQ(stats.msgs_sent, static_cast<std::uint64_t>(kMsgs));
  // Batching: far fewer frames than messages on a fast loopback burst.
  EXPECT_LT(stats.frames_sent, stats.msgs_sent);
  EXPECT_EQ(stats.checksum_failures, 0u);
}

TEST_P(SocketTransportTest, RepliesRouteBackToSender) {
  NetConfig config;
  config.kind = GetParam();
  auto transport = MakeTransport(config);
  Transport* raw = transport.get();

  std::atomic<int> acks{0};
  transport->RegisterEndpoint(kDriverEndpoint, [&acks](Message&& m) {
    if (m.kind == MsgKind::kShuffleAck) {
      acks.fetch_add(1);
    }
  });
  transport->RegisterEndpoint(1, [raw](Message&& m) {
    Message ack;
    ack.kind = MsgKind::kShuffleAck;
    ack.src = 1;
    ack.dst = m.src;
    ack.seq = m.seq;
    raw->Send(std::move(ack));
  });

  constexpr int kMsgs = 50;
  for (int i = 0; i < kMsgs; ++i) {
    Message msg;
    msg.kind = MsgKind::kShuffleData;
    msg.src = kDriverEndpoint;
    msg.dst = 1;
    msg.seq = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(transport->Send(std::move(msg)));
  }
  transport->Flush();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (acks.load() < kMsgs && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(acks.load(), kMsgs);
}

TEST_P(SocketTransportTest, ClosedEndpointReportsPeerGone) {
  NetConfig config;
  config.kind = GetParam();
  auto transport = MakeTransport(config);
  transport->RegisterEndpoint(0, [](Message&&) {});
  Message probe;
  probe.kind = MsgKind::kShuffleData;
  probe.dst = 0;
  ASSERT_TRUE(transport->Send(std::move(probe)));
  transport->Flush();
  transport->CloseEndpoint(0);
  // The sender notices the dead peer either on this send or the next flush;
  // eventually Send must start failing.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool failed = false;
  while (!failed && std::chrono::steady_clock::now() < deadline) {
    Message msg;
    msg.kind = MsgKind::kShuffleData;
    msg.dst = 0;
    failed = !transport->Send(std::move(msg));
    transport->Flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(failed);
}

TEST_P(SocketTransportTest, ZeroBatchBytesStillDrains) {
  NetConfig config;
  config.kind = GetParam();
  // Pathological ceiling constructed directly (the env path clamps to >= 1):
  // every batch must still admit at least one message or the sender spins on
  // empty frames while producers block on the full queue forever.
  config.batch_bytes = 0;
  config.queue_cap = 4;
  auto transport = MakeTransport(config);
  constexpr int kMsgs = 32;
  std::atomic<int> received{0};
  transport->RegisterEndpoint(0, [&received](Message&&) { received.fetch_add(1); });
  for (int i = 0; i < kMsgs; ++i) {
    Message msg;
    msg.kind = MsgKind::kShuffleData;
    msg.dst = 0;
    msg.seq = static_cast<std::uint64_t>(i);
    msg.payload = MakePayload(32, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(transport->Send(std::move(msg)));
  }
  transport->Flush();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received.load() < kMsgs && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received.load(), kMsgs);
}

TEST(Transport, EnvClampsBatchBytesToAtLeastOne) {
  setenv("ITASK_NET_BATCH_BYTES", "0", 1);
  const NetConfig config = NetConfigFromEnv();
  unsetenv("ITASK_NET_BATCH_BYTES");
  EXPECT_GE(config.batch_bytes, 1u);
}

TEST_P(SocketTransportTest, ReconnectsAfterReceiverShedsConnection) {
  NetConfig config;
  config.kind = GetParam();
  // Half the frames are corrupted on the wire: the receiver's checksum
  // rejects them and it drops the connection. The sender must requeue and
  // reconnect — a send failure to a still-registered endpoint is transient,
  // never peer-gone.
  std::string err;
  ASSERT_TRUE(NetFaultPlan::FromSpec("seed=5,corrupt=0.5", &config.fault_plan, &err)) << err;
  auto transport = MakeTransport(config);
  std::atomic<int> received{0};
  transport->RegisterEndpoint(3, [&received](Message&&) { received.fetch_add(1); });

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::uint64_t sent = 0;
  while (std::chrono::steady_clock::now() < deadline &&
         (transport->Stats().send_retries == 0 || received.load() == 0)) {
    Message msg;
    msg.kind = MsgKind::kShuffleData;
    msg.dst = 3;
    msg.seq = sent++;
    msg.payload = MakePayload(64, static_cast<std::uint8_t>(sent));
    // The queue must never die while the endpoint stays registered.
    ASSERT_TRUE(transport->Send(std::move(msg)));
    transport->Flush();  // One frame per message.
  }
  EXPECT_GT(transport->Stats().send_retries, 0u);
  EXPECT_GT(received.load(), 0);
  // And after all that shedding, sends still succeed.
  Message tail;
  tail.kind = MsgKind::kShuffleData;
  tail.dst = 3;
  tail.seq = sent;
  EXPECT_TRUE(transport->Send(std::move(tail)));
  transport->Flush();
}

INSTANTIATE_TEST_SUITE_P(Backends, SocketTransportTest,
                         ::testing::Values(TransportKind::kTcp, TransportKind::kUds),
                         [](const auto& info) {
                           return std::string(TransportKindName(info.param));
                         });

// ---- Seeded network-fault engine (DESIGN.md §16) ----

TEST(NetFaultPlan, SpecRoundTripsEveryClause) {
  NetFaultPlan plan;
  std::string err;
  ASSERT_TRUE(NetFaultPlan::FromSpec(
      "seed=42,drop=0.01,reorder=0.02,dup=0.03,corrupt=0.004,trunc=0.005,"
      "reset=0.006,delay=0.1:2:1,part=0>2@50+100,part=*<>3@10+0,ctrldrop=1@75",
      &plan, &err))
      << err;
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.drop, 0.01);
  EXPECT_DOUBLE_EQ(plan.reorder, 0.02);
  EXPECT_DOUBLE_EQ(plan.duplicate, 0.03);
  EXPECT_DOUBLE_EQ(plan.corrupt, 0.004);
  EXPECT_DOUBLE_EQ(plan.truncate, 0.005);
  EXPECT_DOUBLE_EQ(plan.reset, 0.006);
  EXPECT_DOUBLE_EQ(plan.delay, 0.1);
  EXPECT_DOUBLE_EQ(plan.delay_ms, 2.0);
  EXPECT_DOUBLE_EQ(plan.delay_jitter_ms, 1.0);
  ASSERT_EQ(plan.partitions.size(), 2u);
  EXPECT_EQ(plan.partitions[0].a, 0);
  EXPECT_EQ(plan.partitions[0].b, 2);
  EXPECT_FALSE(plan.partitions[0].two_way);
  EXPECT_DOUBLE_EQ(plan.partitions[0].start_ms, 50.0);
  EXPECT_DOUBLE_EQ(plan.partitions[0].duration_ms, 100.0);
  EXPECT_EQ(plan.partitions[1].a, kAnyEndpoint);
  EXPECT_EQ(plan.partitions[1].b, 3);
  EXPECT_TRUE(plan.partitions[1].two_way);
  EXPECT_DOUBLE_EQ(plan.partitions[1].duration_ms, 0.0);  // Never heals.
  ASSERT_EQ(plan.ctrl_drops.size(), 1u);
  EXPECT_EQ(plan.ctrl_drops[0].node, 1);
  EXPECT_DOUBLE_EQ(plan.ctrl_drops[0].at_ms, 75.0);
  EXPECT_TRUE(plan.active());

  // Describe() emits a spec that parses back into the identical plan.
  NetFaultPlan back;
  ASSERT_TRUE(NetFaultPlan::FromSpec(plan.Describe(), &back, &err)) << err;
  EXPECT_EQ(back.Describe(), plan.Describe());
}

TEST(NetFaultPlan, RejectsMalformedClauses) {
  NetFaultPlan plan;
  std::string err;
  EXPECT_FALSE(NetFaultPlan::FromSpec("drop=1.5", &plan, &err));  // P > 1.
  EXPECT_FALSE(NetFaultPlan::FromSpec("drop=x", &plan, &err));
  EXPECT_FALSE(NetFaultPlan::FromSpec("bogus=1", &plan, &err));
  EXPECT_FALSE(NetFaultPlan::FromSpec("noequals", &plan, &err));
  EXPECT_FALSE(NetFaultPlan::FromSpec("delay=0.1", &plan, &err));  // No MS.
  EXPECT_FALSE(NetFaultPlan::FromSpec("part=0-2@5+5", &plan, &err));
  EXPECT_FALSE(NetFaultPlan::FromSpec("part=0>2@5", &plan, &err));  // No +DUR.
  EXPECT_FALSE(NetFaultPlan::FromSpec("ctrldrop=1", &plan, &err));
  EXPECT_FALSE(NetFaultPlan::FromSpec("seed=", &plan, &err));
  EXPECT_FALSE(err.empty());
  // An empty spec is a valid no-op plan.
  ASSERT_TRUE(NetFaultPlan::FromSpec("", &plan, &err));
  EXPECT_FALSE(plan.active());
}

TEST(NetFaultPlan, FromSeedIsDeterministicAndModerate) {
  const NetFaultPlan a = NetFaultPlan::FromSeed(7);
  EXPECT_EQ(a.Describe(), NetFaultPlan::FromSeed(7).Describe());
  EXPECT_NE(a.Describe(), NetFaultPlan::FromSeed(8).Describe());
  EXPECT_TRUE(a.active());
  // Seeded plans never sever connections via corrupt/truncate — those are
  // opt-in through an explicit spec.
  EXPECT_DOUBLE_EQ(a.corrupt, 0.0);
  EXPECT_DOUBLE_EQ(a.truncate, 0.0);
  // Probabilities stay inside the moderate bands the ledger absorbs.
  EXPECT_GE(a.drop, 0.01);
  EXPECT_LE(a.drop, 0.05);
  EXPECT_GE(a.duplicate, 0.01);
  EXPECT_LE(a.duplicate, 0.05);
  EXPECT_GE(a.reorder, 0.02);
  EXPECT_LE(a.reorder, 0.08);
  EXPECT_GT(a.reset, 0.0);
  EXPECT_LE(a.reset, 0.01);
  ASSERT_EQ(a.partitions.size(), 1u);
  EXPECT_FALSE(a.partitions[0].two_way);
  EXPECT_GT(a.partitions[0].duration_ms, 0.0);  // Always heals.
  // Seed 0 clamps to the seed-1 plan instead of a degenerate all-zeros one.
  EXPECT_EQ(NetFaultPlan::FromSeed(0).Describe(), NetFaultPlan::FromSeed(1).Describe());
}

TEST(NetFaultEngine, DecisionStreamIsSeedDeterministicPerLink) {
  NetFaultPlan plan;
  std::string err;
  ASSERT_TRUE(NetFaultPlan::FromSpec(
      "seed=99,drop=0.2,reorder=0.2,dup=0.2,corrupt=0.1,trunc=0.1,reset=0.1,"
      "delay=0.3:1:0.5",
      &plan, &err))
      << err;
  NetFaultEngine x(plan);
  NetFaultEngine y(plan);
  const int dsts[] = {0, 1, 2, -1};
  std::vector<NetFaultEngine::Decision> per_dst1;
  for (int round = 0; round < 200; ++round) {
    for (const int dst : dsts) {
      const auto dx = x.Apply(dst, 128);
      const auto dy = y.Apply(dst, 128);
      EXPECT_EQ(dx.serial, dy.serial);
      EXPECT_EQ(dx.drop, dy.drop);
      EXPECT_EQ(dx.duplicate, dy.duplicate);
      EXPECT_EQ(dx.reorder, dy.reorder);
      EXPECT_EQ(dx.corrupt, dy.corrupt);
      EXPECT_EQ(dx.truncate, dy.truncate);
      EXPECT_EQ(dx.reset, dy.reset);
      EXPECT_DOUBLE_EQ(dx.delay_ms, dy.delay_ms);
      // At most one connection/frame-destroying fault per frame, and a
      // destroyed frame is never also duplicated/reordered — a dropped
      // duplicate would corrupt the ledger's delivery accounting.
      EXPECT_LE(static_cast<int>(dx.drop) + static_cast<int>(dx.corrupt) +
                    static_cast<int>(dx.truncate) + static_cast<int>(dx.reset),
                1);
      if (dx.drop || dx.reset) {
        EXPECT_FALSE(dx.duplicate);
        EXPECT_FALSE(dx.reorder);
      }
      if (dst == 1) {
        per_dst1.push_back(dx);
      }
    }
  }
  EXPECT_EQ(x.faults_injected(), y.faults_injected());
  EXPECT_GT(x.faults_injected(), 0u);

  // One link's frame count never perturbs another link's draws: an engine
  // that only ever serves dst=1 replays dst=1's exact stream.
  NetFaultEngine solo(plan);
  for (const auto& expect : per_dst1) {
    const auto got = solo.Apply(1, 128);
    EXPECT_EQ(got.serial, expect.serial);
    EXPECT_EQ(got.drop, expect.drop);
    EXPECT_EQ(got.duplicate, expect.duplicate);
    EXPECT_EQ(got.reorder, expect.reorder);
    EXPECT_EQ(got.reset, expect.reset);
    EXPECT_DOUBLE_EQ(got.delay_ms, expect.delay_ms);
  }
}

TEST(NetFaultEngine, PartitionWindowBlocksHealsAndFiresObserverEdges) {
  NetFaultPlan plan;
  std::string err;
  // Node 1's outbound traffic black-holed from t=0 for 50ms.
  ASSERT_TRUE(NetFaultPlan::FromSpec("part=1>*@0+50", &plan, &err)) << err;
  NetFaultEngine engine(plan);
  std::vector<std::pair<int, bool>> edges;
  engine.set_link_observer(
      [&edges](int node, bool blocked) { edges.emplace_back(node, blocked); });

  EXPECT_TRUE(engine.MessageBlocked(1, 2));   // 1 -> anyone is cut.
  EXPECT_FALSE(engine.MessageBlocked(2, 1));  // One-way: reverse flows.
  EXPECT_FALSE(engine.ConnectAllowed(1, 3));
  EXPECT_TRUE(engine.ConnectAllowed(3, 1));
  EXPECT_GE(engine.FaultCount(NetFaultKind::kPartitionDrop), 1u);
  EXPECT_GE(engine.FaultCount(NetFaultKind::kConnectRefused), 1u);

  // The window heals on its own; traffic resumes and the observer hears the
  // closing edge.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.MessageBlocked(1, 2) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(engine.MessageBlocked(1, 2));
  EXPECT_TRUE(engine.ConnectAllowed(1, 3));
  ASSERT_GE(edges.size(), 2u);
  EXPECT_EQ(edges.front(), (std::pair<int, bool>{1, true}));
  EXPECT_EQ(edges.back(), (std::pair<int, bool>{1, false}));
}

// ---- Control plane ----

TEST(CtrlPlane, JoinDispatchResultShutdown) {
  CtrlServer server(0);
  ASSERT_GT(server.port(), 0);

  auto daemon = [&server](const std::string& name, std::uint64_t cap) {
    CtrlClient client;
    const int id = client.Join("127.0.0.1", server.port(), name, cap);
    ASSERT_GE(id, 0);
    client.StartHeartbeats(5, [cap]() { return std::make_pair(cap / 2, cap); });
    client.Serve([](const std::string& app, common::ByteBuffer& config) {
      const JobSpec spec = DecodeJobSpec(&config);
      JobResultMsg result;
      result.checksum = 0x1000 + spec.seed;
      result.records = app.size();
      result.success = true;
      return result;
    });
  };
  std::thread d0(daemon, "alpha", 1 << 20);
  std::thread d1(daemon, "beta", 2 << 20);

  ASSERT_TRUE(server.WaitForNodes(2, 10000));
  EXPECT_EQ(server.num_nodes(), 2);

  JobSpec spec;
  spec.seed = 77;
  common::ByteBuffer config;
  EncodeJobSpec(spec, &config);
  for (int node = 0; node < 2; ++node) {
    ASSERT_TRUE(server.Dispatch(node, "WC", config));
  }
  for (int node = 0; node < 2; ++node) {
    JobResultMsg result;
    ASSERT_TRUE(server.WaitResult(node, 10000, &result)) << "node " << node;
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.checksum, 0x1000u + 77u);
    EXPECT_EQ(result.records, 2u);  // strlen("WC")
  }

  // Heartbeats carried heap stats into the server's node table.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.node(0).heap_used == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(server.node(0).heap_used, 0u);
  // Ids follow join order, and the two daemons race to join.
  EXPECT_EQ((std::set<std::string>{server.node(0).name, server.node(1).name}),
            (std::set<std::string>{"alpha", "beta"}));

  server.Shutdown();  // kBye ends both Serve loops.
  d0.join();
  d1.join();
}

TEST(CtrlPlane, ByeWakesResultWaiters) {
  CtrlServer server(0);
  ASSERT_GT(server.port(), 0);

  // A raw daemon connection: join by hand so the test controls exactly when
  // the goodbye goes out.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  FrameSocket sock(fd);
  {
    Message join;
    join.kind = MsgKind::kJoin;
    join.text = "raw";
    common::ByteBuffer wire;
    EncodeMessage(join, &wire);
    ASSERT_TRUE(sock.SendFrame(wire));
    common::ByteBuffer ack;
    ASSERT_TRUE(sock.RecvFrame(&ack));
  }
  ASSERT_TRUE(server.WaitForNodes(1, 10000));

  std::thread goodbye([&sock] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Message bye;
    bye.kind = MsgKind::kBye;
    common::ByteBuffer wire;
    EncodeMessage(bye, &wire);
    sock.SendFrame(wire);
  });
  // The waiter must wake when the daemon says goodbye, not sleep out the
  // full timeout.
  const auto t0 = std::chrono::steady_clock::now();
  JobResultMsg result;
  EXPECT_FALSE(server.WaitResult(0, /*timeout_ms=*/10000, &result));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_FALSE(server.node(0).connected);
  goodbye.join();
  server.Shutdown();
}

// ---- Ctrl-plane session resume ----

TEST(CtrlPlane, DroppedPeerResumesUnderSameIdWithoutDuplicateResults) {
  CtrlServer server(0);
  ASSERT_GT(server.port(), 0);

  CtrlClient client;
  const int id = client.Join("127.0.0.1", server.port(), "resume-me", 1 << 20);
  ASSERT_EQ(id, 0);
  client.StartHeartbeats(2, [] {
    return std::make_pair(std::uint64_t(1) << 10, std::uint64_t(1) << 20);
  });
  std::atomic<int> jobs{0};
  std::thread serve([&client, &jobs] {
    client.Serve([&jobs](const std::string&, common::ByteBuffer&) {
      JobResultMsg r;
      r.checksum = 0x1111u + static_cast<std::uint64_t>(jobs.fetch_add(1));
      r.records = 1;
      r.success = true;
      return r;
    });
  });

  // One job before the cut, so the client holds a recent result to re-ship.
  JobSpec spec;
  common::ByteBuffer cfg;
  EncodeJobSpec(spec, &cfg);
  ASSERT_TRUE(server.Dispatch(id, "WC", cfg));
  JobResultMsg first;
  ASSERT_TRUE(server.WaitResult(id, 10000, &first));
  EXPECT_EQ(first.checksum, 0x1111u);

  // Sever the ctrl socket server-side, as a network cut would. The daemon
  // must resume the session under its original node id — same slot, no
  // ghost peer.
  server.DropPeer(id);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while ((client.reconnects() == 0 || !server.node(id).connected) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_GE(server.ctrl_reconnects(), 1u);
  EXPECT_TRUE(server.node(id).connected);
  EXPECT_EQ(server.num_nodes(), 1);
  EXPECT_EQ(server.node(id).name, "resume-me");

  // The resync re-shipped the pre-cut result; the server must dedup it by
  // its wire seq instead of surfacing a duplicate.
  JobResultMsg dup;
  EXPECT_FALSE(server.WaitResult(id, 250, &dup));

  // And the resumed session still serves jobs end-to-end.
  ASSERT_TRUE(server.Dispatch(id, "WC", cfg));
  JobResultMsg second;
  ASSERT_TRUE(server.WaitResult(id, 10000, &second));
  EXPECT_EQ(second.checksum, 0x1112u);

  server.Shutdown();  // kBye ends the Serve loop.
  serve.join();
}

// ---- Shuffle fabric: pipelined ledger delivery (DESIGN.md §13) ----

struct U64Traits {
  using Tuple = std::uint64_t;
  static std::uint64_t SizeOf(const Tuple&) { return 16; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WriteVarint(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadVarint(); }
};
using U64Partition = core::VectorPartition<U64Traits>;

TEST(ShuffleFabric, ConcurrentCommitsLandExactlyOnceOverTcp) {
  // Two producers commit windows concurrently while acks stream back on the
  // driver's receive thread into the ledger: every entry reaches its owner
  // exactly once, and MergeSafe() holds off until the last ack is in.
  constexpr int kNodes = 2;
  constexpr int kSplitsPerProducer = 16;
  constexpr int kOutputsPerSplit = 4;
  constexpr std::size_t kEntries = kNodes * kSplitsPerProducer * kOutputsPerSplit;
  memsim::HeapConfig heap_config;
  heap_config.capacity_bytes = 16 << 20;
  heap_config.real_pauses = false;
  memsim::ManagedHeap heap0(heap_config);
  memsim::ManagedHeap heap1(heap_config);
  memsim::ManagedHeap* heaps[kNodes] = {&heap0, &heap1};
  serde::SpillManager spill(std::filesystem::temp_directory_path(), "fabric-ledger");
  core::RecoveryContext rec(core::RecoveryConfig{}, kNodes);
  const core::TypeId type = core::TypeIds::Get("net.test.u64");
  rec.RegisterFactory(type, [type](memsim::ManagedHeap* heap, serde::SpillManager* sp) {
    return std::make_shared<U64Partition>(type, heap, sp);
  });
  std::mutex landed_mu;
  std::multiset<std::pair<std::int64_t, core::Tag>> landed[kNodes];
  for (int n = 0; n < kNodes; ++n) {
    core::RecoveryNodeHooks hooks;
    hooks.heap = heaps[n];
    hooks.spill = &spill;
    hooks.push = [&landed_mu, &landed, n](core::PartitionPtr dp) {
      std::lock_guard<std::mutex> lock(landed_mu);
      landed[n].insert({dp->origin_split(), dp->tag()});
    };
    rec.SetNodeHooks(n, std::move(hooks));
  }
  std::vector<std::int64_t> splits[kNodes];
  for (int producer = 0; producer < kNodes; ++producer) {
    for (int i = 0; i < kSplitsPerProducer; ++i) {
      U64Partition input(type, heaps[producer], &spill);
      input.Append(static_cast<std::uint64_t>(i));
      splits[producer].push_back(rec.RegisterSplit(input, producer));
    }
  }

  NetConfig config;
  config.kind = TransportKind::kTcp;
  config.ack_timeout_ms = 60000;  // Loopback loses nothing: no resend may fire.
  ShuffleFabric fabric(config, &rec, kNodes);
  const auto produce = [&](int producer) {
    for (const std::int64_t split : splits[producer]) {
      for (int k = 0; k < kOutputsPerSplit; ++k) {
        auto out = std::make_shared<U64Partition>(type, heaps[producer], &spill);
        out->set_tag(static_cast<core::Tag>(k + 1));
        out->set_origin(split, 0);
        out->Append(static_cast<std::uint64_t>(split));
        EXPECT_TRUE(rec.StageShuffle(producer, /*home=*/k % kNodes, out));
      }
      rec.CommitEpoch(producer, split, 0);
    }
  };
  std::thread p0(produce, 0);
  std::thread p1(produce, 1);
  p0.join();
  p1.join();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!rec.MergeSafe() && std::chrono::steady_clock::now() < deadline) {
    rec.Sweep();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(rec.MergeSafe());

  {
    std::lock_guard<std::mutex> lock(landed_mu);
    EXPECT_EQ(landed[0].size() + landed[1].size(), kEntries);
    for (int n = 0; n < kNodes; ++n) {
      for (const auto& [split, tag] : landed[n]) {
        EXPECT_EQ(landed[n].count({split, tag}), 1u);
        EXPECT_EQ((static_cast<int>(tag) - 1) % kNodes, n);  // Routed to its home.
      }
    }
  }
  const FabricStats fs = fabric.stats();
  EXPECT_EQ(fs.deliveries_sent, kEntries);
  EXPECT_EQ(fs.acks_ok, kEntries);
  EXPECT_EQ(fs.ack_timeouts, 0u);
  EXPECT_EQ(fs.dup_payloads_dropped, 0u);
  EXPECT_EQ(rec.stats().duplicates_dropped, 0u);
  EXPECT_EQ(rec.stats().shuffle_retries, 0u);
}

// ---- End-to-end: socket shuffle reproduces inproc fingerprints ----

class TransportParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("ITASK_HEARTBEAT_MS", "1", 1);
    setenv("ITASK_SUSPECT_TIMEOUT_MS", "25", 1);
  }
  void TearDown() override {
    unsetenv("ITASK_HEARTBEAT_MS");
    unsetenv("ITASK_SUSPECT_TIMEOUT_MS");
  }

  static apps::AppResult RunOver(const char* app, TransportKind kind,
                                 cluster::FailureModel* model = nullptr,
                                 int ack_timeout_ms = 0,
                                 std::size_t dataset_bytes = 512 << 10,
                                 const NetFaultPlan* fault_plan = nullptr) {
    cluster::ClusterConfig cc;
    cc.num_nodes = 4;
    cc.heap.capacity_bytes = 48 << 20;
    cc.heap.real_pauses = false;
    cc.net.kind = kind;
    if (ack_timeout_ms > 0) {
      cc.net.ack_timeout_ms = ack_timeout_ms;
    }
    if (fault_plan != nullptr) {
      cc.net.fault_plan = *fault_plan;
    }
    cluster::Cluster cluster(cc);
    apps::AppConfig config;
    config.dataset_bytes = dataset_bytes;
    config.tpch_scale = 0.2;
    config.max_workers = 4;
    config.granularity_bytes = 8 << 10;
    config.fault_tolerance = true;
    config.failure_model = model;
    return apps::RunHyracksApp(app, cluster, config, apps::Mode::kITask);
  }
};

TEST_F(TransportParityTest, FaultFreeTcpMatchesInproc) {
  for (const char* app : {"WC", "HS", "HJ"}) {
    const apps::AppResult inproc = RunOver(app, TransportKind::kInproc);
    ASSERT_TRUE(inproc.metrics.succeeded) << app;
    ASSERT_GT(inproc.records, 0u) << app;
    EXPECT_EQ(inproc.metrics.net_msgs_sent, 0u) << app;

    const apps::AppResult tcp = RunOver(app, TransportKind::kTcp);
    ASSERT_TRUE(tcp.metrics.succeeded) << app << ": " << tcp.metrics.Summary();
    EXPECT_EQ(tcp.checksum, inproc.checksum) << app;
    EXPECT_EQ(tcp.records, inproc.records) << app;
    EXPECT_EQ(tcp.metrics.duplicate_tuples_dropped, 0u) << app;
    // The shuffle really crossed the wire.
    EXPECT_GT(tcp.metrics.net_msgs_sent, 0u) << app;
    EXPECT_GT(tcp.metrics.net_bytes_sent, 0u) << app;
  }
}

TEST_F(TransportParityTest, LossyTcpKeepsFingerprint) {
  // A genuinely lossy channel: one frame in ten vanishes on the wire, and
  // one in twenty is torn down with its connection before it is written.
  // Senders must reconnect (never report a live peer as gone) and the
  // shuffle ledger's ack-timeout resend + (split,epoch,seq) dedup must
  // recover every lost payload bit-for-bit. Widen the suspect window and
  // slow heartbeats so the injected loss exercises the ledger, not the
  // failure detector.
  setenv("ITASK_SUSPECT_TIMEOUT_MS", "10000", 1);
  setenv("ITASK_HEARTBEAT_MS", "50", 1);
  constexpr std::size_t kDataset = 128 << 10;
  const apps::AppResult reference =
      RunOver("WC", TransportKind::kInproc, /*model=*/nullptr, /*ack_timeout_ms=*/0, kDataset);
  ASSERT_TRUE(reference.metrics.succeeded);

  NetFaultPlan plan;
  std::string err;
  ASSERT_TRUE(NetFaultPlan::FromSpec("seed=10,drop=0.1,reset=0.05", &plan, &err)) << err;
  const apps::AppResult lossy = RunOver("WC", TransportKind::kTcp, /*model=*/nullptr,
                                        /*ack_timeout_ms=*/100, kDataset, &plan);
  ASSERT_TRUE(lossy.metrics.succeeded) << lossy.metrics.Summary();
  EXPECT_EQ(lossy.checksum, reference.checksum);
  EXPECT_EQ(lossy.records, reference.records);
  EXPECT_EQ(lossy.metrics.duplicate_tuples_dropped, 0u);
  // The loss was real, and both recovery layers fired: the sender re-sent
  // torn-down frames, and the ledger re-sent what vanished silently.
  EXPECT_GT(lossy.metrics.net_faults_injected, 0u);
  EXPECT_GT(lossy.metrics.net_send_retries, 0u);
  EXPECT_GT(lossy.metrics.net_ack_timeouts, 0u);
}

TEST_F(TransportParityTest, SeededChaosPlanTcpKeepsFingerprint) {
  // Drop + reorder + duplicate + delay + reset, all riding one seeded plan:
  // the ledger's (node,split,epoch,seq) dedup and ack-timeout redelivery must
  // absorb every one of them without perturbing the fingerprint. Widen the
  // suspect window so injected loss exercises the ledger, not the detector.
  setenv("ITASK_SUSPECT_TIMEOUT_MS", "10000", 1);
  setenv("ITASK_HEARTBEAT_MS", "50", 1);
  constexpr std::size_t kDataset = 128 << 10;
  const apps::AppResult reference =
      RunOver("WC", TransportKind::kInproc, /*model=*/nullptr, /*ack_timeout_ms=*/0, kDataset);
  ASSERT_TRUE(reference.metrics.succeeded);

  NetFaultPlan plan;
  std::string err;
  ASSERT_TRUE(NetFaultPlan::FromSpec(
      "seed=7,drop=0.02,reorder=0.05,dup=0.03,reset=0.005,delay=0.1:1:0.5",
      &plan, &err))
      << err;
  const apps::AppResult chaotic =
      RunOver("WC", TransportKind::kTcp, /*model=*/nullptr, /*ack_timeout_ms=*/100, kDataset,
              &plan);
  ASSERT_TRUE(chaotic.metrics.succeeded) << chaotic.metrics.Summary();
  EXPECT_EQ(chaotic.checksum, reference.checksum);
  EXPECT_EQ(chaotic.records, reference.records);
  EXPECT_EQ(chaotic.metrics.duplicate_tuples_dropped, 0u);
  // The plan really fired (seeded probabilities over thousands of frames).
  EXPECT_GT(chaotic.metrics.net_faults_injected, 0u);
}

TEST_F(TransportParityTest, TimedPartitionHealsWithoutReexecution) {
  // A one-way partition black-holes node 1's outbound traffic (shuffle data
  // AND heartbeats) from 5ms into the transport's life until 805ms: open
  // before a fast job could finish, and long enough to outlast the feed of a
  // slow (sanitized) run. The link observer parks the node in kDisconnected,
  // the grace window outlasts the cut, and after the heal the job finishes
  // with zero lineage re-execution and nobody declared dead.
  setenv("ITASK_HEARTBEAT_MS", "5", 1);
  setenv("ITASK_SUSPECT_TIMEOUT_MS", "200", 1);
  setenv("ITASK_DISCONNECT_GRACE_MS", "60000", 1);
  const apps::AppResult reference = RunOver("WC", TransportKind::kInproc);
  ASSERT_TRUE(reference.metrics.succeeded);

  NetFaultPlan plan;
  std::string err;
  ASSERT_TRUE(NetFaultPlan::FromSpec("part=1>*@5+800", &plan, &err)) << err;
  const apps::AppResult cut =
      RunOver("WC", TransportKind::kTcp, /*model=*/nullptr, /*ack_timeout_ms=*/100, 512 << 10,
              &plan);
  unsetenv("ITASK_DISCONNECT_GRACE_MS");
  ASSERT_TRUE(cut.metrics.succeeded) << cut.metrics.Summary();
  EXPECT_EQ(cut.checksum, reference.checksum);
  EXPECT_EQ(cut.records, reference.records);
  EXPECT_EQ(cut.metrics.duplicate_tuples_dropped, 0u);
  // Zero re-executions attributable to the healed cut.
  EXPECT_EQ(cut.metrics.splits_reexecuted, 0u);
  EXPECT_EQ(cut.metrics.nodes_failed, 0u);
  EXPECT_GT(cut.metrics.net_faults_injected, 0u);  // Partition drops counted.
}

TEST_F(TransportParityTest, KilledNodeOverTcpKeepsFingerprint) {
  const apps::AppResult reference = RunOver("WC", TransportKind::kInproc);
  ASSERT_TRUE(reference.metrics.succeeded);

  cluster::FailureModel model;
  model.ScheduleKill(1, 2.0);
  const apps::AppResult faulted = RunOver("WC", TransportKind::kTcp, &model);
  ASSERT_TRUE(faulted.metrics.succeeded) << faulted.metrics.Summary();
  EXPECT_EQ(faulted.checksum, reference.checksum);
  EXPECT_EQ(faulted.records, reference.records);
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u);
  EXPECT_GE(faulted.metrics.nodes_failed, 1u);
}

// ---- Telemetry plane (DESIGN.md §15) ----

// Gives every RunMetrics field its own non-default value: bools true,
// counters and doubles distinct by list position (counters wide enough for
// multi-byte varints), histograms distinct observations. A field the codec
// skips, reorders or truncates then fails to match.
common::RunMetrics DistinctMetrics() {
  common::RunMetrics m;
  std::uint64_t n = 0;
  common::RunMetrics::ForEachField([&](const char*, auto field, auto) {
    ++n;
    auto& value = m.*field;
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<T, bool>) {
      value = true;
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      value = (n << 20) + n;
    } else if constexpr (std::is_same_v<T, double>) {
      value = static_cast<double>(n) + 0.125;
    } else {
      obs::Histogram hist(obs::InterruptLatencyBoundsNs());
      for (std::uint64_t i = 0; i < 50 + n; ++i) {
        hist.Observe(2000 + i * 1511 * n);
      }
      value = hist.snapshot();
    }
  });
  return m;
}

TEST(MetricsWire, RunMetricsRoundTripsWithHistograms) {
  // The distinct record catches a skipped or reordered field; the default
  // one catches a codec that writes a constant.
  for (const common::RunMetrics& m : {DistinctMetrics(), common::RunMetrics{}}) {
    common::ByteBuffer wire;
    EncodeRunMetrics(m, &wire);
    const common::RunMetrics d = DecodeRunMetrics(&wire);
    int fields = 0;
    common::RunMetrics::ForEachField([&](const char* name, auto field, auto) {
      ++fields;
      const auto& want = m.*field;
      const auto& got = d.*field;
      if constexpr (std::is_same_v<std::decay_t<decltype(got)>, obs::HistogramSnapshot>) {
        // Histograms survive bucket-exactly, so cluster-side quantiles match
        // the daemon's own view.
        EXPECT_EQ(got.bounds, want.bounds) << name;
        EXPECT_EQ(got.counts, want.counts) << name;
        EXPECT_EQ(got.count, want.count) << name;
        EXPECT_EQ(got.sum, want.sum) << name;
        EXPECT_EQ(got.max, want.max) << name;
        EXPECT_DOUBLE_EQ(got.Quantile(0.99), want.Quantile(0.99)) << name;
      } else {
        EXPECT_EQ(got, want) << name;
      }
    });
    EXPECT_GT(fields, 50);
  }
}

TEST_F(TransportParityTest, SpanIdsStableAcrossSeededReruns) {
  // Span ids hash ledger coordinates (trace, kind, src, dst, split, epoch,
  // seq), not wall-clock or pointer state, so two identical seeded runs must
  // produce the same id set even though thread interleaving differs. Resends
  // reuse the original delivery's span, so retries don't perturb the set.
  // A node spuriously declared dead on a slow machine would re-route data to
  // new destinations (new spans), so the detector is kept out of the way.
  setenv("ITASK_SUSPECT_TIMEOUT_MS", "10000", 1);
  const auto run = [] {
    cluster::ClusterConfig cc;
    cc.num_nodes = 4;
    cc.heap.capacity_bytes = 48 << 20;
    cc.heap.real_pauses = false;
    cc.net.kind = TransportKind::kTcp;
    cluster::Cluster cluster(cc);
    apps::AppConfig config;
    config.dataset_bytes = 256 << 10;
    config.max_workers = 4;
    config.granularity_bytes = 8 << 10;
    config.fault_tolerance = true;
    config.seed = 1234;
    config.trace_active = true;
    return apps::RunHyracksApp("WC", cluster, config, apps::Mode::kITask);
  };
  const apps::AppResult first = run();
  const apps::AppResult second = run();
  ASSERT_TRUE(first.metrics.succeeded) << first.metrics.Summary();
  ASSERT_TRUE(second.metrics.succeeded) << second.metrics.Summary();
  const auto spans = [](const apps::AppResult& r) {
    std::set<std::uint64_t> ids;
    for (const obs::Event& e : r.events) {
      if (e.kind == obs::EventKind::kMsgSend) {
        EXPECT_NE(e.a, 0u);  // A stamped flow event always has a span.
        ids.insert(e.a);
      }
    }
    return ids;
  };
  const std::set<std::uint64_t> a = spans(first);
  const std::set<std::uint64_t> b = spans(second);
  ASSERT_FALSE(a.empty());  // The shuffle really crossed the wire, traced.
  EXPECT_EQ(a, b);
}

TEST_F(TransportParityTest, HangedNodeOverTcpKeepsFingerprint) {
  const apps::AppResult reference = RunOver("HS", TransportKind::kInproc);
  ASSERT_TRUE(reference.metrics.succeeded);

  cluster::FailureModel model;
  model.ScheduleHang(2, 2.0, /*silence_age_ms=*/10000.0);
  const apps::AppResult faulted = RunOver("HS", TransportKind::kTcp, &model);
  ASSERT_TRUE(faulted.metrics.succeeded) << faulted.metrics.Summary();
  EXPECT_EQ(faulted.checksum, reference.checksum);
  EXPECT_EQ(faulted.records, reference.records);
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u);
  EXPECT_GE(faulted.metrics.nodes_failed, 1u);
}

}  // namespace
}  // namespace itask::net
