// Serving golden-conformance suite: the sharded SoA serving path (one
// batched model call per monitor shard per tick) must be bit-identical to
// the reference oracle — scalar monitors from core::factory_from_bundle,
// stepped directly (testutil::ScalarOracle) — for every monitor kind,
// across session and thread counts, through mid-stream session churn (lane
// compaction), and across snapshot/restore round trips in both directions.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/lstm.h"
#include "ml/mlp.h"
#include "serve/engine.h"
#include "synthetic_util.h"

namespace {

using namespace aps;

/// The five conformance monitor kinds: the three ML monitors (specialized
/// SoA batches) plus the stateless CAW rules and the stateful guideline
/// recovery counters (per-lane fallback batches).
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

std::unique_ptr<serve::MonitorEngine> make_engine(std::size_t threads) {
  auto engine = std::make_unique<serve::MonitorEngine>(
      serve::EngineConfig{.threads = threads});
  engine->register_bundle(shared_bundle());
  return engine;
}

/// Per-session deterministic stream.
std::vector<monitor::Observation> session_stream(std::size_t session,
                                                 std::size_t steps) {
  return testutil::synth_stream(steps,
                                9000 + static_cast<std::uint64_t>(session));
}

TEST(ServeConformance, MixedPopulationMatchesScalarPath) {
  // A mixed population — every monitor kind interleaved — fed identical
  // per-cycle batches must produce bit-identical decisions to the oracle,
  // for session counts {1, 7, 64} and thread counts {1, 4}.
  const std::size_t kSteps = 60;
  for (const std::size_t threads : {1u, 4u}) {
    for (const std::size_t n : {1u, 7u, 64u}) {
      auto sharded = make_engine(threads);
      testutil::ScalarOracle scalar(shared_bundle());

      std::vector<serve::SessionId> sharded_ids;
      std::vector<std::string> patients;
      std::vector<std::vector<monitor::Observation>> streams;
      for (std::size_t s = 0; s < n; ++s) {
        const std::string& kind = kKinds[s % kKinds.size()];
        const std::string patient = "p" + std::to_string(s);
        const int index = static_cast<int>(s) % kCohort;
        sharded_ids.push_back(sharded->open_session(patient, kind, index));
        scalar.open(patient, kind, index);
        patients.push_back(patient);
        streams.push_back(session_stream(s, kSteps));
      }

      for (std::size_t k = 0; k < kSteps; ++k) {
        std::vector<serve::SessionInput> sharded_batch;
        for (std::size_t s = 0; s < n; ++s) {
          sharded_batch.push_back({sharded_ids[s], streams[s][k]});
        }
        const auto got = sharded->feed(sharded_batch);
        for (std::size_t s = 0; s < n; ++s) {
          const auto want = scalar.feed(patients[s], streams[s][k]);
          ASSERT_TRUE(testutil::decisions_equal(want, got[s]))
              << "sessions=" << n << " threads=" << threads << " session "
              << s << " (" << kKinds[s % kKinds.size()] << ") cycle " << k;
        }
      }
      for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(sharded->stats(sharded_ids[s]).alarms,
                  scalar.alarms(patients[s]))
            << "session " << s;
      }
    }
  }
}

TEST(ServeConformance, MidStreamOpenCloseCompactsLanesCorrectly) {
  // Sessions closed mid-stream vacate lanes (swap-with-last compaction);
  // surviving and late-joining sessions must keep streams bit-identical to
  // the oracle through the churn.
  const std::size_t kSteps = 60;
  const std::size_t kInitial = 10;
  for (const auto& kind : kKinds) {
    auto sharded = make_engine(4);
    testutil::ScalarOracle scalar(shared_bundle());

    struct Live {
      serve::SessionId sharded_id;
      std::string patient;
      std::size_t stream;  ///< stream seed index
      std::size_t joined;  ///< step the session joined at
    };
    std::vector<Live> live;
    std::map<std::size_t, std::vector<monitor::Observation>> streams;
    std::size_t next_stream = 0;

    const auto open_one = [&](std::size_t step) {
      const std::size_t s = next_stream++;
      const std::string patient = kind + "-p" + std::to_string(s);
      const int index = static_cast<int>(s) % kCohort;
      streams[s] = session_stream(s, kSteps);
      scalar.open(patient, kind, index);
      live.push_back(
          {sharded->open_session(patient, kind, index), patient, s, step});
    };
    for (std::size_t s = 0; s < kInitial; ++s) open_one(0);

    for (std::size_t k = 0; k < kSteps; ++k) {
      if (k == 20) {
        // Close three sessions scattered across the lane range, including
        // lane 0 and the middle (exercises swap-with-last remapping).
        for (const std::size_t victim : {7u, 4u, 0u}) {
          sharded->close_session(live[victim].sharded_id);
          scalar.close(live[victim].patient);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        }
      }
      if (k == 30) {
        for (int j = 0; j < 4; ++j) open_one(k);
      }
      std::vector<serve::SessionInput> sharded_batch;
      for (const Live& session : live) {
        const auto& obs = streams[session.stream][k - session.joined];
        sharded_batch.push_back({session.sharded_id, obs});
      }
      const auto got = sharded->feed(sharded_batch);
      for (std::size_t i = 0; i < live.size(); ++i) {
        const auto want = scalar.feed(
            live[i].patient, streams[live[i].stream][k - live[i].joined]);
        ASSERT_TRUE(testutil::decisions_equal(want, got[i]))
            << kind << " cycle " << k << " session stream "
            << live[i].stream;
      }
    }
    EXPECT_EQ(sharded->session_count(), scalar.size());
  }
}

TEST(ServeConformance, SnapshotRestoreRoundTripContinuesBitIdentically) {
  // Snapshot every session mid-stream from a sharded engine, restore into
  // a FRESH sharded engine, and continue: the tail must match an
  // uninterrupted oracle run bit for bit (LSTM windows, guideline recovery
  // counters survive the lane extract/adopt round trip).
  const std::size_t kSteps = 60;
  const std::size_t kCut = 30;
  const std::size_t kSessions = 2 * kKinds.size();

  auto sharded = make_engine(4);
  testutil::ScalarOracle scalar(shared_bundle());

  std::vector<serve::SessionId> sharded_ids;
  std::vector<std::string> patients;
  std::vector<std::vector<monitor::Observation>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string& kind = kKinds[s % kKinds.size()];
    const std::string patient = "p" + std::to_string(s);
    const int index = static_cast<int>(s) % kCohort;
    sharded_ids.push_back(sharded->open_session(patient, kind, index));
    scalar.open(patient, kind, index);
    patients.push_back(patient);
    streams.push_back(session_stream(s, kSteps));
  }

  const auto feed_all = [&](serve::MonitorEngine& engine,
                            const std::vector<serve::SessionId>& ids,
                            std::size_t k) {
    std::vector<serve::SessionInput> batch;
    for (std::size_t s = 0; s < kSessions; ++s) {
      batch.push_back({ids[s], streams[s][k]});
    }
    return engine.feed(batch);
  };
  const auto feed_oracle = [&](std::size_t k) {
    std::vector<monitor::Decision> decisions;
    for (std::size_t s = 0; s < kSessions; ++s) {
      decisions.push_back(scalar.feed(patients[s], streams[s][k]));
    }
    return decisions;
  };

  for (std::size_t k = 0; k < kCut; ++k) {
    (void)feed_all(*sharded, sharded_ids, k);
    (void)feed_oracle(k);
  }

  // Round trip into a fresh sharded engine.
  auto restored = make_engine(4);
  std::vector<serve::SessionId> restored_ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const serve::SessionSnapshot snap = sharded->snapshot(sharded_ids[s]);
    EXPECT_EQ(snap.stats.cycles, kCut);
    restored_ids.push_back(restored->restore(snap));
  }

  for (std::size_t k = kCut; k < kSteps; ++k) {
    const auto got = feed_all(*restored, restored_ids, k);
    const auto want = feed_oracle(k);
    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_TRUE(testutil::decisions_equal(want[s], got[s]))
          << "session " << s << " (" << kKinds[s % kKinds.size()]
          << ") cycle " << k;
    }
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(restored->stats(restored_ids[s]).cycles, kSteps);
  }
}

TEST(ServeConformance, SnapshotsRestoreAcrossBackends) {
  // A snapshot is oracle-neutral: engine -> oracle (the snapshot's monitor
  // stepped directly) and oracle -> engine (a snapshot built from the
  // oracle monitor's clone) both continue the stream exactly.
  const std::size_t kSteps = 40;
  const std::size_t kCut = 20;
  for (const auto& kind : kKinds) {
    auto a = make_engine(2);
    testutil::ScalarOracle b(shared_bundle());
    const auto id_a = a->open_session("pat", kind, 1);
    b.open("pat", kind, 1);
    const auto stream = session_stream(77, kSteps);
    for (std::size_t k = 0; k < kCut; ++k) {
      const auto da = a->feed_one(id_a, stream[k]);
      const auto db = b.feed("pat", stream[k]);
      ASSERT_TRUE(testutil::decisions_equal(da, db)) << kind << " @" << k;
    }
    // Cross-restore.
    testutil::ScalarOracle a2(shared_bundle());
    auto b2 = make_engine(2);
    a2.adopt("pat", a->snapshot(id_a).monitor);
    serve::SessionSnapshot snap_b;
    snap_b.patient_id = "pat";
    snap_b.monitor_name = kind;
    snap_b.patient_index = 1;
    snap_b.stats = {.cycles = kCut, .alarms = b.alarms("pat")};
    snap_b.monitor = b.monitor("pat").clone();
    const auto id_b2 = b2->restore(snap_b);
    for (std::size_t k = kCut; k < kSteps; ++k) {
      const auto da = a2.feed("pat", stream[k]);
      const auto db = b2->feed_one(id_b2, stream[k]);
      ASSERT_TRUE(testutil::decisions_equal(da, db)) << kind << " @" << k;
    }
  }
}

}  // namespace
