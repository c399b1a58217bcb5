// Replica-sharded serving conformance: an EngineGroup must be a drop-in
// scale-out of one MonitorEngine — bit-identical decisions across replica
// counts {1, 2, 8} and every monitor kind, stable consistent-hash routing,
// flat RSS through heavy session churn, and deadline-aware degradation
// (twin-answered ticks counted, zero below pressure, primary stream
// resuming bit-identically once pressure subsides).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/lstm.h"
#include "ml/mlp.h"
#include "serve/engine.h"
#include "serve/group.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

const std::vector<std::string> kKinds = {"dt", "mlp", "lstm", "cawt",
                                         "guideline"};
constexpr int kCohort = 4;

/// One tiny but fully populated bundle, trained once for the whole suite.
const core::ArtifactBundle& shared_bundle() {
  static const core::ArtifactBundle* bundle = [] {
    auto* b = new core::ArtifactBundle;
    b->artifacts = testutil::synth_artifacts(kCohort);
    {
      ml::DecisionTreeConfig config;
      config.max_depth = 4;
      ml::DecisionTree tree(config);
      tree.fit(testutil::synth_dataset(300, 11));
      b->dt = std::make_shared<const ml::DecisionTree>(std::move(tree));
    }
    {
      ml::MlpConfig config;
      config.hidden_units = {8, 4};
      config.max_epochs = 3;
      ml::Mlp mlp(config);
      mlp.fit(testutil::synth_dataset(300, 13));
      b->mlp = std::make_shared<const ml::Mlp>(std::move(mlp));
    }
    {
      ml::LstmConfig config;
      config.hidden_units = {4};
      config.max_epochs = 1;
      config.batch_size = 16;
      ml::Lstm lstm(config);
      lstm.fit(testutil::synth_sequences(80, 17));
      b->lstm = std::make_shared<const ml::Lstm>(std::move(lstm));
    }
    return b;
  }();
  return *bundle;
}

/// Rule-monitor-only bundle for the cheap churn/routing tests.
core::ArtifactBundle rule_bundle() {
  core::ArtifactBundle bundle;
  bundle.artifacts = testutil::synth_artifacts(kCohort);
  return bundle;
}

std::unique_ptr<serve::EngineGroup> make_group(std::size_t replicas,
                                               std::uint32_t deadline_us = 0) {
  serve::GroupConfig config;
  config.replicas = replicas;
  config.tick_deadline_us = deadline_us;
  auto group = std::make_unique<serve::EngineGroup>(config);
  group->register_bundle(shared_bundle());
  return group;
}

std::vector<monitor::Observation> session_stream(std::size_t session,
                                                 std::size_t steps) {
  return testutil::synth_stream(steps,
                                4200 + static_cast<std::uint64_t>(session));
}

std::size_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(EngineGroup, DecisionsInvariantToReplicaCount) {
  // A mixed population — every monitor kind interleaved — fed identical
  // per-cycle batches must produce bit-identical decisions on a single
  // engine and on groups of 1, 2, and 8 replicas, including batches that
  // carry multiple inputs for one session (applied in batch order).
  const std::size_t kSteps = 40;
  const std::size_t kSessions = 25;

  std::vector<std::vector<monitor::Observation>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams.push_back(session_stream(s, kSteps));
  }

  for (const std::size_t replicas : {1u, 2u, 8u}) {
    serve::MonitorEngine reference;
    reference.register_bundle(shared_bundle());
    auto group = make_group(replicas);
    std::vector<serve::SessionId> ids, ref_ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      const std::string& kind = kKinds[s % kKinds.size()];
      const std::string patient = "p" + std::to_string(s);
      const int index = static_cast<int>(s) % kCohort;
      ids.push_back(group->open_session(patient, kind, index));
      ref_ids.push_back(reference.open_session(patient, kind, index));
    }

    for (std::size_t k = 0; k < kSteps; ++k) {
      std::vector<serve::SessionInput> group_batch, ref_batch;
      for (std::size_t s = 0; s < kSessions; ++s) {
        group_batch.push_back({ids[s], streams[s][k]});
        ref_batch.push_back({ref_ids[s], streams[s][k]});
      }
      if (k % 10 == 5) {
        // Two inputs for one session in one batch: order must hold on
        // whichever replica owns it.
        group_batch.push_back({ids[3], streams[3][k]});
        ref_batch.push_back({ref_ids[3], streams[3][k]});
      }
      const auto got = group->feed(group_batch);
      const auto want = reference.feed(ref_batch);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(testutil::decisions_equal(want[i], got[i]))
            << "replicas=" << replicas << " input " << i << " ("
            << kKinds[(i % kSessions) % kKinds.size()] << ") cycle " << k;
      }
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      EXPECT_EQ(group->stats(ids[s]).alarms,
                reference.stats(ref_ids[s]).alarms)
          << "replicas=" << replicas << " session " << s;
    }
  }
}

TEST(EngineGroup, ConsistentHashRoutingIsStable) {
  serve::GroupConfig config;
  config.replicas = 4;
  serve::EngineGroup group(config);
  group.register_bundle(rule_bundle());

  std::vector<serve::SessionId> ids;
  for (int p = 0; p < 100; ++p) {
    const std::string patient = "patient-" + std::to_string(p);
    const auto id = group.open_session(patient, "cawt", p % kCohort);
    ids.push_back(id);
    // The session id's top bits are the ring-owned replica; find_session
    // routes by the same hash.
    EXPECT_EQ(serve::EngineGroup::replica_of_session(id),
              group.replica_of(patient));
    EXPECT_EQ(group.find_session(patient), std::optional(id));
  }
  EXPECT_EQ(group.session_count(), 100u);

  // Every replica should own a non-trivial share (64 vnodes each).
  std::vector<std::size_t> owned(group.replicas(), 0);
  for (const auto id : ids) {
    owned[serve::EngineGroup::replica_of_session(id)]++;
  }
  for (std::size_t r = 0; r < owned.size(); ++r) {
    EXPECT_GT(owned[r], 0u) << "replica " << r << " owns no sessions";
  }

  // Duplicate patient ids land on the same replica and are rejected there.
  EXPECT_THROW(group.open_session("patient-7", "cawt", 0),
               std::invalid_argument);

  const auto stream = session_stream(1, 3);
  std::vector<serve::SessionInput> batch;
  for (const auto id : ids) batch.push_back({id, stream[0]});
  (void)group.feed(batch);
  for (const auto id : ids) {
    EXPECT_EQ(group.stats(id).cycles, 1u);
  }
  for (const auto id : ids) group.close_session(id);
  EXPECT_EQ(group.session_count(), 0u);
  EXPECT_EQ(group.find_session("patient-7"), std::nullopt);
}

TEST(EngineGroup, SnapshotRestoreKeepsRingPlacement) {
  // Snapshots restored into a group with a DIFFERENT replica count land on
  // the new ring's owner and continue the stream bit-identically against
  // an uninterrupted single engine.
  const std::size_t kSteps = 30;
  const std::size_t kCut = 15;
  const std::size_t kSessions = kKinds.size();

  auto group = make_group(2);
  serve::MonitorEngine reference;
  reference.register_bundle(shared_bundle());

  std::vector<serve::SessionId> ids, ref_ids;
  std::vector<std::vector<monitor::Observation>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string patient = "snap-p" + std::to_string(s);
    ids.push_back(group->open_session(patient, kKinds[s],
                                      static_cast<int>(s) % kCohort));
    ref_ids.push_back(reference.open_session(patient, kKinds[s],
                                             static_cast<int>(s) % kCohort));
    streams.push_back(session_stream(100 + s, kSteps));
  }
  for (std::size_t k = 0; k < kCut; ++k) {
    std::vector<serve::SessionInput> batch, ref_batch;
    for (std::size_t s = 0; s < kSessions; ++s) {
      batch.push_back({ids[s], streams[s][k]});
      ref_batch.push_back({ref_ids[s], streams[s][k]});
    }
    (void)group->feed(batch);
    (void)reference.feed(ref_batch);
  }

  auto moved = make_group(3);
  std::vector<serve::SessionId> moved_ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto snap = group->snapshot(ids[s]);
    const auto id = moved->restore(snap);
    EXPECT_EQ(serve::EngineGroup::replica_of_session(id),
              moved->replica_of(snap.patient_id));
    moved_ids.push_back(id);
  }
  for (std::size_t k = kCut; k < kSteps; ++k) {
    std::vector<serve::SessionInput> batch, ref_batch;
    for (std::size_t s = 0; s < kSessions; ++s) {
      batch.push_back({moved_ids[s], streams[s][k]});
      ref_batch.push_back({ref_ids[s], streams[s][k]});
    }
    const auto got = moved->feed(batch);
    const auto want = reference.feed(ref_batch);
    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_TRUE(testutil::decisions_equal(want[s], got[s]))
          << "session " << s << " (" << kKinds[s] << ") cycle " << k;
    }
  }
}

TEST(EngineGroup, ChurnKeepsRssFlat) {
  // 10k open/close cycles against a live population: swap-with-last lane
  // compaction plus id recycling must keep resident memory flat — growth
  // between the warmed-up measurement and the end stays in allocator
  // noise, nowhere near 10k leaked lanes.
  serve::GroupConfig config;
  config.replicas = 2;
  serve::EngineGroup group(config);
  group.register_bundle(rule_bundle());

  const std::size_t kBase = 64;
  std::vector<serve::SessionId> base_ids;
  for (std::size_t s = 0; s < kBase; ++s) {
    base_ids.push_back(group.open_session("base-" + std::to_string(s), "cawt",
                                          static_cast<int>(s) % kCohort));
  }
  const auto stream = session_stream(7, 64);

  const auto churn = [&](std::size_t cycles) {
    for (std::size_t c = 0; c < cycles; ++c) {
      const auto id =
          group.open_session("churn-" + std::to_string(c % 17), "cawt",
                             static_cast<int>(c) % kCohort);
      if (c % 16 == 0) {
        std::vector<serve::SessionInput> batch;
        for (const auto bid : base_ids) batch.push_back({bid, stream[c % 64]});
        batch.push_back({id, stream[c % 64]});
        (void)group.feed(batch);
      }
      group.close_session(id);
    }
  };

  churn(1000);  // warm up allocator pools, scratch buffers, series
  const std::size_t warmed = rss_bytes();
  churn(10000);
  const std::size_t after = rss_bytes();
  EXPECT_EQ(group.session_count(), kBase);

  const std::size_t growth = after > warmed ? after - warmed : 0;
  EXPECT_LT(growth, 8u * 1024 * 1024)
      << "RSS grew " << growth / 1024 << " KiB across 10k open/close cycles";
}

TEST(EngineGroup, NoThreadStartsOrExitsWhileServing) {
  // Every thread the group runs (one worker per replica plus each replica
  // engine's pool) exists once construction returns, and none starts or
  // exits while sessions open, tick and close: per-thread CPU accounting
  // (servebench's traced run reconciles /proc task times with getrusage)
  // is exact only over a fixed thread set.
  serve::GroupConfig config;
  config.replicas = 2;
  config.engine.threads = 2;
  serve::EngineGroup group(config);
  group.register_bundle(shared_bundle());
  const auto baseline = testutil::live_threads();
  if (!baseline) GTEST_SKIP() << "/proc/self/task is unreadable";

  constexpr std::size_t kFeeds = 200;
  const auto stream = session_stream(11, kFeeds);
  std::deque<serve::SessionId> live;
  std::size_t next = 0;
  const auto open_one = [&] {
    const std::size_t s = next++;
    live.push_back(group.open_session("steady-" + std::to_string(s),
                                      kKinds[s % kKinds.size()],
                                      static_cast<int>(s) % kCohort));
  };
  for (int i = 0; i < 8; ++i) open_one();
  for (std::size_t k = 0; k < kFeeds; ++k) {
    if (k % 10 == 9) {  // churn interleaved with the feeds
      group.close_session(live.front());
      live.pop_front();
      open_one();
    }
    std::vector<serve::SessionInput> batch;
    for (const serve::SessionId id : live) batch.push_back({id, stream[k]});
    (void)group.feed(batch);
    if (k % 50 == 49) {
      (void)group.latency();
      group.reset_latency();
    }
    ASSERT_EQ(testutil::live_threads(), baseline) << "feed " << k;
  }
}

TEST(EngineGroup, NoDegradedTicksBelowDeadlinePressure) {
  // With degradation disabled (deadline 0) or a deadline no worker can
  // miss (10 s), every tick serves the primary monitors: the degraded
  // counter stays zero and decisions match the reference engine.
  for (const std::uint32_t deadline_us : {0u, 10'000'000u}) {
    auto group = make_group(2, deadline_us);
    std::vector<serve::SessionId> ids;
    for (std::size_t s = 0; s < 6; ++s) {
      ids.push_back(group->open_session("dl-p" + std::to_string(s), "lstm",
                                        static_cast<int>(s) % kCohort));
    }
    const auto stream = session_stream(55, 30);
    for (std::size_t k = 0; k < 30; ++k) {
      std::vector<serve::SessionInput> batch;
      for (const auto id : ids) batch.push_back({id, stream[k]});
      (void)group->feed(batch);
    }
    EXPECT_EQ(group->latency().degraded_ticks, 0u)
        << "deadline_us=" << deadline_us;
  }
}

TEST(EngineGroup, ImpossibleDeadlineTriggersCountedDegradation) {
  // A 1 us deadline is shorter than any worker wakeup: over 100 ticks the
  // group must serve at least one tick degraded and count every
  // twin-answered cycle.
  auto group = make_group(2, 1);
  std::vector<serve::SessionId> ids;
  for (std::size_t s = 0; s < 4; ++s) {
    ids.push_back(group->open_session("hot-p" + std::to_string(s), "lstm",
                                      static_cast<int>(s) % kCohort));
  }
  const auto stream = session_stream(99, 100);
  for (std::size_t k = 0; k < 100; ++k) {
    std::vector<serve::SessionInput> batch;
    for (const auto id : ids) batch.push_back({id, stream[k]});
    (void)group->feed(batch);
  }
  EXPECT_GT(group->latency().degraded_ticks, 0u);
}

TEST(ServeDegrade, DegradedTicksAnswerFromTwinAndResumeBitIdentically) {
  // Engine-level FeedMode contract (deterministic — no timing): during a
  // degraded window the lstm shard's decisions come from its dt twin, the
  // degraded cycles are counted, and once the mode returns to normal the
  // primary stream is bit-identical to an engine that never degraded
  // (ingest_lanes kept the LSTM windows advancing).
  const std::size_t kSteps = 40;
  const std::size_t kWindowStart = 20, kWindowEnd = 25;
  const std::size_t n = 3;

  serve::MonitorEngine degraded, normal, dt_ref;
  degraded.register_bundle(shared_bundle());
  normal.register_bundle(shared_bundle());
  dt_ref.register_bundle(shared_bundle());

  std::vector<serve::SessionId> d_ids, n_ids, t_ids;
  std::vector<std::vector<monitor::Observation>> streams;
  for (std::size_t s = 0; s < n; ++s) {
    const std::string patient = "deg-p" + std::to_string(s);
    const int index = static_cast<int>(s) % kCohort;
    d_ids.push_back(degraded.open_session(patient, "lstm", index));
    n_ids.push_back(normal.open_session(patient, "lstm", index));
    // The twin only observes degraded ticks, so the dt reference sessions
    // are fed ONLY the degraded-window observations below.
    t_ids.push_back(dt_ref.open_session(patient, "dt", index));
    streams.push_back(session_stream(200 + s, kSteps));
  }

  std::vector<monitor::Observation> obs(n);
  std::vector<monitor::Decision> got(n), want(n), twin_want(n);
  for (std::size_t k = 0; k < kSteps; ++k) {
    for (std::size_t s = 0; s < n; ++s) obs[s] = streams[s][k];
    const bool in_window = k >= kWindowStart && k < kWindowEnd;
    degraded.feed(d_ids, obs, got,
                  in_window ? serve::FeedMode::kDegraded
                            : serve::FeedMode::kNormal);
    normal.feed(n_ids, obs, want);
    if (in_window) {
      dt_ref.feed(t_ids, obs, twin_want);
      for (std::size_t s = 0; s < n; ++s) {
        ASSERT_TRUE(testutil::decisions_equal(twin_want[s], got[s]))
            << "degraded tick " << k << " session " << s
            << " not answered by the dt twin";
      }
    } else {
      for (std::size_t s = 0; s < n; ++s) {
        ASSERT_TRUE(testutil::decisions_equal(want[s], got[s]))
            << "tick " << k << " session " << s
            << (k >= kWindowEnd ? " did not resume bit-identically"
                                : " diverged before the window");
      }
    }
  }
  EXPECT_EQ(degraded.latency().degraded_ticks,
            n * (kWindowEnd - kWindowStart));
  EXPECT_EQ(normal.latency().degraded_ticks, 0u);

  // Sessions without a twin (dt has no degrade mapping) serve normally
  // even in degraded mode.
  serve::MonitorEngine plain;
  plain.register_bundle(shared_bundle());
  const auto pid = plain.open_session("plain-p", "dt", 0);
  std::vector<serve::SessionId> pids = {pid};
  std::vector<monitor::Observation> pobs = {streams[0][0]};
  std::vector<monitor::Decision> pdec(1);
  plain.feed(pids, pobs, pdec, serve::FeedMode::kDegraded);
  EXPECT_EQ(plain.latency().degraded_ticks, 0u);
}

TEST(EngineGroup, FeedsRacingShutdownFailCleanlyNotCrash) {
  // Several frontend threads hammer feed() while the main thread calls
  // shutdown() mid-flight: every in-flight feed must complete its barrier,
  // every later feed must fail with ShutdownError (nothing enqueued, no
  // hang on a joined worker), and a second shutdown() is a no-op. Runs
  // under the TSan CI job via the "threads" label.
  serve::GroupConfig config;
  config.replicas = 4;
  config.engine.telemetry = false;
  auto group = std::make_unique<serve::EngineGroup>(config);
  group->register_bundle(rule_bundle());

  constexpr int kThreads = 4;
  constexpr std::size_t kSessionsPerThread = 4;
  std::vector<std::vector<serve::SessionInput>> batches(kThreads);
  std::vector<std::vector<monitor::Observation>> streams(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    streams[t] = session_stream(static_cast<std::size_t>(t), 1);
    for (std::size_t s = 0; s < kSessionsPerThread; ++s) {
      const auto id = group->open_session(
          "hammer" + std::to_string(t) + "/p" + std::to_string(s), "cawt",
          static_cast<int>(s) % kCohort);
      batches[t].push_back({id, streams[t][0]});
    }
  }

  std::atomic<std::uint64_t> served{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<monitor::Decision> decisions(batches[t].size());
      for (;;) {
        try {
          group->feed(batches[t], decisions);
          served.fetch_add(1, std::memory_order_relaxed);
        } catch (const serve::ShutdownError&) {
          refused.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  // Let real feeds overlap the shutdown before pulling the plug.
  while (served.load(std::memory_order_relaxed) < 64) {
    std::this_thread::yield();
  }
  group->shutdown();
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(refused.load(), kThreads);
  EXPECT_GE(served.load(), 64u);

  // The group object is still alive: late feeds keep failing cleanly and
  // shutdown stays idempotent.
  std::vector<monitor::Decision> decisions(batches[0].size());
  EXPECT_THROW(group->feed(batches[0], decisions), serve::ShutdownError);
  EXPECT_NO_THROW(group->shutdown());
}

namespace {

/// Deterministic monitor that burns wall time: makes a 2-slot ingest
/// queue genuinely fill while the frontend is still enqueuing chunks.
class SlowDeterministicMonitor final : public monitor::Monitor {
 public:
  void reset() override { cycles_ = 0; }
  [[nodiscard]] monitor::Decision observe(
      const monitor::Observation& obs) override {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    ++cycles_;
    monitor::Decision d;
    d.alarm = obs.bg < 70.0 || obs.bg > 300.0;
    if (d.alarm) {
      d.predicted = obs.bg < 70.0 ? HazardType::kH1TooMuchInsulin
                                  : HazardType::kH2TooLittleInsulin;
      d.rule_id = static_cast<int>(cycles_ % 7);
    }
    return d;
  }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<monitor::Monitor> clone() const override {
    auto copy = std::make_unique<SlowDeterministicMonitor>();
    copy->cycles_ = cycles_;
    return copy;
  }

 private:
  std::uint64_t cycles_ = 0;
  std::string name_ = "slow";
};

}  // namespace

TEST(EngineGroup, QueueFullBackpressureLosesNothing) {
  // A deliberately tiny ingest queue (2 slots) with single-tick jobs and a
  // slow monitor: the frontend must hit try_push failure (counted in
  // serve_group_backpressure_total), yet once the pressure clears every
  // tick was served exactly once and decisions are bit-identical to an
  // unpressured reference engine — backpressure stalls, it never drops.
  serve::GroupConfig config;
  config.replicas = 1;
  config.queue_capacity = 2;
  config.max_ticks_per_job = 1;
  config.engine.telemetry = false;
  serve::EngineGroup group(config);
  group.register_monitor("slow", [](int) {
    return std::make_unique<SlowDeterministicMonitor>();
  });
  serve::MonitorEngine reference(
      {.threads = 1, .registry = nullptr, .telemetry = false});
  reference.register_monitor("slow", [](int) {
    return std::make_unique<SlowDeterministicMonitor>();
  });

  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kSteps = 5;
  std::vector<serve::SessionId> ids, ref_ids;
  std::vector<std::vector<monitor::Observation>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string patient = "bp/p" + std::to_string(s);
    ids.push_back(group.open_session(patient, "slow", 0));
    ref_ids.push_back(reference.open_session(patient, "slow", 0));
    streams.push_back(session_stream(s, kSteps));
  }

  for (std::size_t k = 0; k < kSteps; ++k) {
    std::vector<serve::SessionInput> batch, ref_batch;
    for (std::size_t s = 0; s < kSessions; ++s) {
      batch.push_back({ids[s], streams[s][k]});
      ref_batch.push_back({ref_ids[s], streams[s][k]});
    }
    const auto got = group.feed(batch);
    const auto want = reference.feed(ref_batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(testutil::decisions_equal(want[i], got[i]))
          << "cycle " << k << " input " << i;
    }
  }
  // 8 single-tick jobs per feed against a 2-slot queue served at ~300us a
  // tick: the producer must have seen a full queue.
  EXPECT_GT(group.registry().counter_value("serve_group_backpressure_total"),
            0u);
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(group.stats(ids[s]).cycles, kSteps);  // nothing silently lost
  }
}

}  // namespace
