// Ingest server integration stress, serve_stress_test style: concurrent
// real-socket clients stream sessions through a live IngestServer while
// every decision is verified inline against a standalone reference
// monitor; afterwards the private registry must reconcile EXACTLY with
// the client-side tallies (bytes in == bytes the clients sent, one frame
// counter per kind, zero drops). The run is recorded to a listfile
// (net_stress.listfile, uploaded as a CI artifact) and replayed into a
// fresh engine, which must reproduce every decision. Separate tests
// cover hostile clients, backpressure, and the connection ceiling.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/monitor_factory.h"
#include "net/client.h"
#include "net/listfile.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/group.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

constexpr int kCohort = 4;
constexpr int kClients = 6;
constexpr int kSessionsPerClient = 3;
constexpr std::size_t kSteps = 30;

core::ArtifactBundle rule_bundle() {
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(kCohort);
  return bundle;
}

const std::vector<std::string>& monitor_names() {
  static const std::vector<std::string> names = {"guideline", "cawot",
                                                 "cawt"};
  return names;
}

/// A one-replica group: the single-engine front door.
serve::GroupConfig one_replica(std::size_t threads,
                               obs::Registry* registry = nullptr) {
  serve::GroupConfig config;
  config.replicas = 1;
  config.engine.threads = threads;
  config.engine.registry = registry;
  return config;
}

/// Spin until the server has seen every client disconnect, so the
/// post-run counter reconciliation is exact (writers quiesced).
void wait_for_disconnects(const net::IngestServer& server) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.open_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.open_connections(), 0u);
}

TEST(NetServer, MultiClientServingVerifiesExactlyAndReplays) {
  const auto bundle = rule_bundle();
  obs::Registry registry;  // private: reconciliation below is exact
  serve::EngineGroup group(one_replica(2, &registry));
  group.register_bundle(bundle);

  net::ServerConfig config;
  config.listfile = "net_stress.listfile";  // CI uploads this artifact
  config.registry = &registry;
  net::IngestServer server(group, config);
  server.start();

  std::mutex failures_mu;
  std::vector<std::string> failures;
  const auto fail = [&](std::string message) {
    const std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(message));
  };

  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::BlockingClient client("127.0.0.1", server.port(),
                                   "stress client " + std::to_string(c));
        struct Session {
          std::uint64_t token;
          std::vector<monitor::Observation> stream;
          std::unique_ptr<monitor::Monitor> reference;
        };
        std::vector<Session> sessions;
        for (int s = 0; s < kSessionsPerClient; ++s) {
          const int index = (c * kSessionsPerClient + s) % kCohort;
          const std::string& monitor_name =
              monitor_names()[(c + s) % monitor_names().size()];
          const auto token = static_cast<std::uint64_t>(s);
          client.open_session(token,
                              "stress/c" + std::to_string(c) + "/s" +
                                  std::to_string(s),
                              monitor_name, index);
          sessions.push_back(
              {token,
               testutil::synth_stream(kSteps, 7000 + c * 100 + s),
               core::factory_from_bundle(bundle, monitor_name)(index)});
        }
        // Stream cycle by cycle: send one tick per session, then collect
        // the cycle's decisions (any token order) and verify each against
        // the session's standalone reference monitor.
        for (std::size_t k = 0; k < kSteps; ++k) {
          for (auto& session : sessions) {
            client.send_tick(session.token, k, session.stream[k]);
          }
          for (std::size_t i = 0; i < sessions.size(); ++i) {
            const net::DecisionMsg msg = client.recv_decision();
            if (msg.seq != k || msg.token >= sessions.size()) {
              fail("client " + std::to_string(c) + ": got token " +
                   std::to_string(msg.token) + " seq " +
                   std::to_string(msg.seq) + " at step " + std::to_string(k));
              continue;
            }
            auto& session = sessions[msg.token];
            const auto expected = session.reference->observe(session.stream[k]);
            if (!testutil::decisions_equal(msg.decision, expected)) {
              fail("client " + std::to_string(c) + " session " +
                   std::to_string(msg.token) + " step " + std::to_string(k) +
                   ": decision diverged from reference monitor");
            }
          }
        }
        for (auto& session : sessions) {
          const net::CloseAckMsg ack = client.close_session(session.token);
          if (ack.cycles != kSteps) {
            fail("close ack cycles " + std::to_string(ack.cycles) +
                 " != " + std::to_string(kSteps));
          }
        }
        bytes_sent.fetch_add(client.bytes_sent());
        bytes_received.fetch_add(client.bytes_received());
      } catch (const std::exception& e) {
        fail("client " + std::to_string(c) + " exception: " + e.what());
      }
    });
  }
  for (auto& thread : clients) thread.join();
  wait_for_disconnects(server);
  server.stop();

  for (const auto& message : failures) ADD_FAILURE() << message;

  // ---- Exact reconciliation against the private registry -----------------
  constexpr std::uint64_t kSessions = kClients * kSessionsPerClient;
  constexpr std::uint64_t kTicks = kSessions * kSteps;
  EXPECT_EQ(registry.counter_value("net_connections_total",
                                   {{"state", "accepted"}}),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(registry.counter_value("net_connections_total",
                                   {{"state", "closed"}}),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(registry.counter_value("net_connections_total",
                                   {{"state", "rejected"}}),
            0u);
  EXPECT_EQ(registry.gauge_value("net_connections", {{"state", "open"}}),
            0.0);
  EXPECT_EQ(registry.counter_value("net_ticks_total"), kTicks);
  EXPECT_EQ(registry.counter_value("net_protocol_errors_total"), 0u);
  EXPECT_EQ(registry.counter_value("net_frames_dropped_total",
                                   {{"reason", "disconnect"}}),
            0u);
  EXPECT_EQ(registry.counter_value("net_frames_dropped_total",
                                   {{"reason", "closed_session"}}),
            0u);
  // One frame-count per kind, both directions.
  const auto frames = [&](const char* dir, const char* kind) {
    return registry.counter_value("net_frames_total",
                                  {{"dir", dir}, {"kind", kind}});
  };
  EXPECT_EQ(frames("in", "hello"), static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(frames("out", "hello-ack"), static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(frames("in", "open-session"), kSessions);
  EXPECT_EQ(frames("out", "open-ack"), kSessions);
  EXPECT_EQ(frames("in", "tick"), kTicks);
  EXPECT_EQ(frames("out", "decision"), kTicks);
  EXPECT_EQ(frames("in", "close-session"), kSessions);
  EXPECT_EQ(frames("out", "close-ack"), kSessions);
  EXPECT_EQ(frames("out", "error"), 0u);
  // Byte totals match the client-side tallies exactly.
  EXPECT_EQ(registry.counter_value("net_bytes_in_total"), bytes_sent.load());
  EXPECT_EQ(registry.counter_value("net_bytes_out_total"),
            bytes_received.load());
  // Every session was closed through the protocol, none leaked.
  EXPECT_EQ(group.session_count(), 0u);
  // The scrape exposes the net series alongside the serving ones.
  const std::string prom = registry.scrape_prometheus();
  for (const char* series :
       {"net_connections", "net_bytes_in_total", "net_frames_total",
        "net_tick_batch_size", "net_frame_bytes", "serve_ticks_total"}) {
    EXPECT_NE(prom.find(series), std::string::npos)
        << series << " missing from the Prometheus scrape";
  }

  // ---- Golden replay of the recorded run ----------------------------------
  serve::MonitorEngine fresh({.threads = 2});
  fresh.register_bundle(bundle);
  const net::ReplayResult replay =
      net::replay_listfile("net_stress.listfile", fresh);
  EXPECT_EQ(replay.sessions_opened, kSessions);
  EXPECT_EQ(replay.sessions_closed, kSessions);
  EXPECT_EQ(replay.ticks, kTicks);
  EXPECT_EQ(replay.compared, kTicks);
  EXPECT_EQ(replay.mismatches, 0u) << "replayed run diverged from live";
  EXPECT_EQ(replay.unmatched, 0u);
}

/// Raw socket that speaks no protocol at all — for hostile-input tests.
class RawSocket {
 public:
  RawSocket(const std::string& host, std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("connect failed");
    }
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  void send_bytes(const void* data, std::size_t n) const {
    (void)::send(fd_, data, n, MSG_NOSIGNAL);
  }
  /// True once the server closed our end (reads EOF within the timeout).
  bool closed_by_peer() const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    char buf[4096];
    while (std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n == 0) return true;  // clean EOF: dropped by the server
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
          errno != EINTR) {
        return true;  // reset also counts as dropped
      }
      if (n < 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // n > 0: an error frame on its way out; keep draining to the EOF.
    }
    return false;
  }

 private:
  int fd_ = -1;
};

TEST(NetServer, HostileClientsAreDroppedAndServingContinues) {
  const auto bundle = rule_bundle();
  obs::Registry registry;
  serve::EngineGroup group(one_replica(1, &registry));
  group.register_bundle(bundle);
  net::ServerConfig config;
  config.registry = &registry;
  net::IngestServer server(group, config);
  server.start();

  // 1. Pure garbage instead of a frame header.
  {
    RawSocket hostile("127.0.0.1", server.port());
    const char garbage[] = "GET / HTTP/1.1\r\nHost: pump\r\n\r\n";
    hostile.send_bytes(garbage, sizeof garbage);
    EXPECT_TRUE(hostile.closed_by_peer());
  }
  // 2. A valid frame, but the conversation must start with hello.
  {
    RawSocket hostile("127.0.0.1", server.port());
    const auto frame =
        net::encode_frame(net::encode(net::CloseSessionMsg{.token = 1}));
    hostile.send_bytes(frame.data(), frame.size());
    EXPECT_TRUE(hostile.closed_by_peer());
  }
  // 3. Hostile length field with a freshly computed (valid) header CRC.
  {
    RawSocket hostile("127.0.0.1", server.port());
    std::vector<std::uint8_t> bytes;
    const auto put_u16 = [&](std::uint16_t v) {
      bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
      bytes.push_back(static_cast<std::uint8_t>(v >> 8));
    };
    const auto put_u32 = [&](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
      }
    };
    put_u32(net::kNetMagic);
    put_u16(net::kNetVersion);
    put_u16(static_cast<std::uint16_t>(net::FrameKind::kHello));
    put_u32(0xFFFFFFFFu);
    put_u32(io::crc32(bytes.data(), bytes.size()));
    put_u32(0);
    hostile.send_bytes(bytes.data(), bytes.size());
    EXPECT_TRUE(hostile.closed_by_peer());
  }
  // 4. Per-byte truncated hellos: connect, send a prefix, vanish.
  {
    const auto hello = net::encode_frame(
        net::encode(net::HelloMsg{.client_name = "truncated"}));
    for (std::size_t cut = 1; cut < hello.size(); cut += 5) {
      RawSocket flaky("127.0.0.1", server.port());
      flaky.send_bytes(hello.data(), cut);
    }
  }

  // The server is still alive and serving correct decisions.
  net::BlockingClient client("127.0.0.1", server.port(), "survivor");
  client.open_session(1, "survivor/session", "guideline", 0);
  const auto stream = testutil::synth_stream(10, 321);
  auto reference = core::factory_from_bundle(bundle, "guideline")(0);
  for (std::size_t k = 0; k < stream.size(); ++k) {
    client.send_tick(1, k, stream[k]);
    const net::DecisionMsg msg = client.recv_decision();
    EXPECT_TRUE(testutil::decisions_equal(msg.decision,
                                          reference->observe(stream[k])));
  }
  const auto ack = client.close_session(1);
  EXPECT_EQ(ack.cycles, stream.size());

  EXPECT_GE(registry.counter_value("net_protocol_errors_total"), 3u);
  EXPECT_EQ(group.session_count(), 0u);
}

TEST(NetServer, BackpressurePausesReadsWithoutDroppingAnything) {
  const auto bundle = rule_bundle();
  obs::Registry registry;
  serve::EngineGroup group(one_replica(1, &registry));
  group.register_bundle(bundle);
  net::ServerConfig config;
  config.registry = &registry;
  config.max_queued_events = 4;  // tiny queue: the blast below must pause
  config.tick_interval_ms = 2;
  net::IngestServer server(group, config);
  server.start();

  constexpr std::size_t kBlast = 300;
  net::BlockingClient client("127.0.0.1", server.port(), "blaster");
  client.open_session(9, "blast/session", "cawt", 1);
  const auto stream = testutil::synth_stream(kBlast, 555);
  // Fire the whole stream without reading a single decision.
  for (std::size_t k = 0; k < kBlast; ++k) {
    client.send_tick(9, k, stream[k]);
  }
  // Every decision still arrives, in per-session order, bit-correct.
  auto reference = core::factory_from_bundle(bundle, "cawt")(1);
  for (std::size_t k = 0; k < kBlast; ++k) {
    const net::DecisionMsg msg = client.recv_decision();
    ASSERT_EQ(msg.seq, k) << "decisions out of order under backpressure";
    EXPECT_TRUE(testutil::decisions_equal(msg.decision,
                                          reference->observe(stream[k])));
  }
  const auto ack = client.close_session(9);
  EXPECT_EQ(ack.cycles, kBlast);
  server.stop();

  EXPECT_GE(registry.counter_value("net_backpressure_pauses_total"), 1u);
  EXPECT_EQ(registry.counter_value("net_frames_dropped_total",
                                   {{"reason", "disconnect"}}),
            0u);
  EXPECT_EQ(registry.counter_value("net_frames_dropped_total",
                                   {{"reason", "closed_session"}}),
            0u);
  EXPECT_EQ(registry.counter_value("net_ticks_total"), kBlast);
}

TEST(NetServer, ConnectionCeilingRejectsTheOverflow) {
  const auto bundle = rule_bundle();
  obs::Registry registry;
  serve::EngineGroup group(one_replica(1, &registry));
  group.register_bundle(bundle);
  net::ServerConfig config;
  config.registry = &registry;
  config.max_connections = 2;
  net::IngestServer server(group, config);
  server.start();

  net::BlockingClient first("127.0.0.1", server.port(), "one");
  net::BlockingClient second("127.0.0.1", server.port(), "two");
  // The third connects at TCP level but is closed before any handshake.
  EXPECT_THROW(
      net::BlockingClient("127.0.0.1", server.port(), "over"),
      io::IoError);
  EXPECT_EQ(registry.counter_value("net_connections_total",
                                   {{"state", "rejected"}}),
            1u);
}

TEST(NetServer, OpenErrorsAreAcksNotDisconnects) {
  const auto bundle = rule_bundle();
  serve::EngineGroup group(one_replica(1));
  group.register_bundle(bundle);
  net::IngestServer server(group, {});
  server.start();

  net::BlockingClient client("127.0.0.1", server.port(), "acks");
  // Unknown monitor name: refused via OpenAck, connection stays up.
  EXPECT_THROW(client.open_session(1, "acks/a", "no-such-monitor", 0),
               net::ProtocolError);
  // Out-of-range patient index: same.
  EXPECT_THROW(client.open_session(2, "acks/b", "cawt", kCohort + 5),
               net::ProtocolError);
  // The connection is still usable for a valid open.
  client.open_session(3, "acks/c", "cawt", 0);
  // Duplicate token: refused.
  EXPECT_THROW(client.open_session(3, "acks/d", "cawt", 1),
               net::ProtocolError);
  // Duplicate patient id (another token): refused by the engine.
  EXPECT_THROW(client.open_session(4, "acks/c", "cawt", 1),
               net::ProtocolError);
  const auto ack = client.close_session(3);
  EXPECT_EQ(ack.cycles, 0u);
  EXPECT_EQ(group.session_count(), 0u);
}

TEST(NetServer, NoThreadStartsOrExitsWhileServing) {
  // The whole stack's thread set — the group's replica worker and engine
  // pool, the server's IO thread — is fixed once start() returns: no
  // thread starts or exits while wire sessions open, tick and close
  // (servebench's traced run reconciles per-thread /proc CPU with
  // getrusage, which only holds over a fixed thread set).
  const auto bundle = rule_bundle();
  obs::Registry registry;
  serve::EngineGroup group(one_replica(2, &registry));
  group.register_bundle(bundle);
  if (!testutil::live_threads()) {
    GTEST_SKIP() << "/proc/self/task is unreadable";
  }
  net::ServerConfig config;
  config.registry = &registry;
  net::IngestServer server(group, config);
  server.start();
  const auto baseline = testutil::live_threads();
  ASSERT_TRUE(baseline.has_value());

  constexpr std::size_t kFeeds = 200;
  const auto stream = testutil::synth_stream(kFeeds, 4242);
  net::BlockingClient client("127.0.0.1", server.port(), "steady");
  std::deque<std::uint64_t> live;  // open tokens
  std::uint64_t next_token = 0;
  const auto open_one = [&] {
    const std::uint64_t token = next_token++;
    client.open_session(token, "steady/p" + std::to_string(token),
                        monitor_names()[token % monitor_names().size()],
                        static_cast<int>(token % kCohort));
    live.push_back(token);
  };
  for (int i = 0; i < 4; ++i) open_one();
  for (std::size_t k = 0; k < kFeeds; ++k) {
    if (k % 10 == 9) {  // churn interleaved with the feeds
      (void)client.close_session(live.front());
      live.pop_front();
      open_one();
    }
    for (const std::uint64_t token : live) {
      client.send_tick(token, k, stream[k]);
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      (void)client.recv_decision();
    }
    if (k % 50 == 49) {
      (void)group.latency();
      group.reset_latency();
    }
    ASSERT_EQ(testutil::live_threads(), baseline) << "feed " << k;
  }
  for (const std::uint64_t token : live) (void)client.close_session(token);
  EXPECT_EQ(registry.counter_value("net_ticks_total"),
            kFeeds * live.size());
}

TEST(NetServer, GroupRoutesToOwningReplicas) {
  // The replica-sharded flavor of the front door: sessions opened over the
  // wire land on their ring-owned replica (the id's top bits), ticks are
  // routed through the group's queues, and every decision still matches a
  // standalone reference monitor — the client can't tell how many engines
  // are behind the socket.
  const auto bundle = rule_bundle();
  obs::Registry registry;
  serve::GroupConfig group_config;
  group_config.replicas = 3;
  group_config.engine.registry = &registry;
  serve::EngineGroup group(group_config);
  group.register_bundle(bundle);

  net::ServerConfig config;
  config.registry = &registry;
  net::IngestServer server(group, config);
  server.start();

  constexpr std::uint64_t kGroupSessions = 9;
  net::BlockingClient client("127.0.0.1", server.port(), "group client");
  struct Session {
    std::vector<monitor::Observation> stream;
    std::unique_ptr<monitor::Monitor> reference;
  };
  std::vector<Session> sessions;
  for (std::uint64_t s = 0; s < kGroupSessions; ++s) {
    const int index = static_cast<int>(s) % kCohort;
    const std::string& name = monitor_names()[s % monitor_names().size()];
    const std::string patient = "group/p" + std::to_string(s);
    client.open_session(s, patient, name, index);
    sessions.push_back({testutil::synth_stream(kSteps, 8800 + s),
                        core::factory_from_bundle(bundle, name)(index)});
    // The wire-opened session sits on the replica the ring owns it to.
    const auto id = group.find_session(patient);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(serve::EngineGroup::replica_of_session(*id),
              group.replica_of(patient));
  }
  EXPECT_EQ(group.session_count(), kGroupSessions);

  for (std::size_t k = 0; k < kSteps; ++k) {
    for (std::uint64_t s = 0; s < kGroupSessions; ++s) {
      client.send_tick(s, k, sessions[s].stream[k]);
    }
    for (std::uint64_t i = 0; i < kGroupSessions; ++i) {
      const net::DecisionMsg msg = client.recv_decision();
      ASSERT_EQ(msg.seq, k);
      ASSERT_LT(msg.token, kGroupSessions);
      auto& session = sessions[msg.token];
      const auto expected = session.reference->observe(session.stream[k]);
      ASSERT_TRUE(testutil::decisions_equal(msg.decision, expected))
          << "session " << msg.token << " step " << k;
    }
  }
  for (std::uint64_t s = 0; s < kGroupSessions; ++s) {
    const net::CloseAckMsg ack = client.close_session(s);
    EXPECT_EQ(ack.cycles, kSteps);
  }
  server.stop();
  EXPECT_EQ(group.session_count(), 0u);
  EXPECT_EQ(registry.counter_value("net_ticks_total"),
            kGroupSessions * kSteps);
  EXPECT_EQ(registry.counter_value("net_protocol_errors_total"), 0u);
}

TEST(NetServer, SheddingServerSendsTypedRejectsAndClientsBackOff) {
  // Overload end-to-end: with the group at the top of the admission
  // ladder, an open comes back as a typed kReject (not a disconnect, not
  // a generic error), an over-quota tenant's tick comes back as a seq-
  // echoed kReject while an in-quota tenant is still served, the shed
  // tick stays OUT of the listfile record, and a client honoring the
  // retry hint succeeds once the ladder clears.
  const auto bundle = rule_bundle();
  obs::Registry registry;
  serve::GroupConfig group_config;
  group_config.replicas = 2;
  group_config.engine.registry = &registry;
  group_config.admission.enabled = true;
  group_config.admission.min_dwell_ticks = 2;
  group_config.admission.retry_after_ms = 20;
  group_config.admission.tenant_quotas = {
      {"bulk", {.ticks_per_sec = 1e-6, .burst = 1e-6}}};
  serve::EngineGroup group(group_config);
  group.register_bundle(bundle);

  const std::string listfile = "aps_reject.listfile";
  net::ServerConfig config;
  config.registry = &registry;
  config.listfile = listfile;
  net::IngestServer server(group, config);
  server.start();

  net::BlockingClient client("127.0.0.1", server.port(), "bulk/client");
  client.open_session(0, "care/p0", "cawt", 0);
  client.open_session(1, "bulk/p0", "cawt", 1);
  const auto stream = testutil::synth_stream(8, 9900);

  // Warm both sessions while healthy: everything served.
  client.send_tick(0, 0, stream[0]);
  client.send_tick(1, 0, stream[0]);
  for (int i = 0; i < 2; ++i) {
    const net::TickReply reply = client.recv_reply();
    EXPECT_TRUE(reply.served);
  }

  // Saturate the ladder, as a full ingest queue would.
  group.admission().observe_tick(1.0, 0.0);
  ASSERT_EQ(group.admission().state(), serve::OverloadState::kShed);

  // An open while shedding: typed reject carrying the backoff hint.
  try {
    client.open_session(2, "care/p1", "cawt", 2);
    FAIL() << "open while shedding was not rejected";
  } catch (const net::RejectedError& err) {
    EXPECT_EQ(err.reject().token, 2u);
    EXPECT_EQ(err.reject().seq, 0u);
    EXPECT_EQ(err.reject().reason, 1u);  // kOverloadOpen
    EXPECT_EQ(err.reject().retry_after_ms, 20u);
  }

  // bulk's bucket is empty (quotas only bite while shedding, and its
  // burst is ~zero), so its tick sheds with the seq echoed back; care is
  // in quota and still served from the same batch.
  group.admission().observe_tick(1.0, 0.0);  // re-arm past the server feed
  client.send_tick(0, 1, stream[1]);
  client.send_tick(1, 1, stream[1]);
  bool care_served = false, bulk_shed = false;
  for (int i = 0; i < 2; ++i) {
    const net::TickReply reply = client.recv_reply();
    if (reply.served) {
      EXPECT_EQ(reply.decision.token, 0u);
      care_served = true;
    } else {
      EXPECT_EQ(reply.reject.token, 1u);
      EXPECT_EQ(reply.reject.seq, 1u);
      EXPECT_EQ(reply.reject.reason, 2u);  // kOverQuotaTick
      bulk_shed = true;
    }
  }
  EXPECT_TRUE(care_served);
  EXPECT_TRUE(bulk_shed);

  // The ladder clears after calm feeds (dwell = 1 per rung); a retrying
  // open now succeeds by backing off instead of failing.
  for (int k = 2; k < 6; ++k) {
    client.send_tick(0, static_cast<std::uint64_t>(k), stream[k]);
    EXPECT_TRUE(client.recv_reply().served);
  }
  ASSERT_EQ(group.admission().state(), serve::OverloadState::kHealthy);
  EXPECT_NO_THROW(client.open_session(2, "care/p1", "cawt", 2,
                                      /*max_retries=*/3));

  for (const std::uint64_t token : {0u, 1u, 2u}) {
    (void)client.close_session(token);
  }
  server.stop();

  // Every shed is visible in the registry, attributed to its tenant...
  EXPECT_EQ(registry.counter_value(
                "serve_shed_total", {{"reason", "tick"}, {"tenant", "bulk"}}),
            1u);
  EXPECT_EQ(registry.counter_value(
                "serve_shed_total", {{"reason", "tick"}, {"tenant", "care"}}),
            0u);
  EXPECT_EQ(registry.counter_value(
                "serve_shed_total", {{"reason", "open"}, {"tenant", "care"}}),
            1u);
  EXPECT_EQ(registry.counter_value("net_frames_total",
                                   {{"dir", "out"}, {"kind", "reject"}}),
            2u);

  // ...and net_ticks_total counts SERVED ticks only, which is also what
  // the listfile holds — a replay must reproduce every served decision
  // without tripping over the shed tick.
  EXPECT_EQ(registry.counter_value("net_ticks_total"), 7u);
  serve::MonitorEngine fresh({.threads = 1});
  fresh.register_bundle(bundle);
  const net::ReplayResult replayed = net::replay_listfile(listfile, fresh);
  EXPECT_EQ(replayed.ticks, 7u);
  EXPECT_EQ(replayed.mismatches, 0u);
  EXPECT_EQ(replayed.unmatched, 0u);
  std::remove(listfile.c_str());
}

}  // namespace
