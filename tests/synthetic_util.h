// Shared synthetic fixtures for the serialization and serving tests:
// tiny trained models, hand-built training artifacts, and deterministic
// observation streams — all fast enough to train inside a unit test —
// plus the serving suites' one reference oracle (ScalarOracle).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "common/rng.h"
#include "core/monitor_factory.h"
#include "ml/dataset.h"
#include "ml/lstm.h"
#include "monitor/caw.h"
#include "monitor/ml_monitor.h"
#include "monitor/monitor.h"

namespace aps::testutil {

inline aps::monitor::Observation synth_observation(aps::Rng& rng,
                                                   double time_min) {
  aps::monitor::Observation obs;
  obs.time_min = time_min;
  obs.bg = rng.uniform(40.0, 320.0);
  obs.bg_rate = rng.uniform(-8.0, 8.0);
  obs.iob = rng.uniform(0.0, 10.0);
  obs.iob_rate = rng.uniform(-0.5, 0.5);
  obs.commanded_rate = rng.uniform(0.0, 3.0);
  obs.previous_rate = rng.uniform(0.0, 3.0);
  obs.action = static_cast<aps::ControlAction>(rng.uniform_int(0, 3));
  obs.basal_rate = 1.0;
  obs.isf = 40.0;
  return obs;
}

inline std::vector<aps::monitor::Observation> synth_stream(
    std::size_t steps, std::uint64_t seed) {
  aps::Rng rng(seed);
  std::vector<aps::monitor::Observation> stream;
  stream.reserve(steps);
  for (std::size_t k = 0; k < steps; ++k) {
    stream.push_back(synth_observation(rng, 5.0 * static_cast<double>(k)));
  }
  return stream;
}

/// Hazard-shaped labels over random features so the tiny models have
/// something learnable.
inline int synth_label(const std::vector<double>& features) {
  const double bg = features[0];
  const double iob = features[2];
  return (bg < 80.0 && iob > 4.0) || bg > 260.0 ? 1 : 0;
}

inline aps::ml::Dataset synth_dataset(std::size_t n, std::uint64_t seed) {
  aps::ml::Dataset data;
  data.classes = 2;
  data.x = aps::ml::Matrix(n, aps::monitor::kMlFeatureCount);
  data.y.resize(n);
  aps::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const auto obs = synth_observation(rng, 5.0 * static_cast<double>(i));
    const auto features = aps::monitor::ml_features(obs);
    for (std::size_t c = 0; c < features.size(); ++c) {
      data.x.at(i, c) = features[c];
    }
    data.y[i] = synth_label(features);
  }
  return data;
}

inline aps::ml::SequenceDataset synth_sequences(std::size_t n,
                                                std::uint64_t seed) {
  aps::ml::SequenceDataset data;
  data.classes = 2;
  aps::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    aps::ml::Matrix window(aps::monitor::kLstmWindow,
                           aps::monitor::kMlFeatureCount);
    std::vector<double> last;
    for (std::size_t t = 0; t < aps::monitor::kLstmWindow; ++t) {
      const auto obs = synth_observation(rng, 5.0 * static_cast<double>(t));
      last = aps::monitor::ml_features(obs);
      for (std::size_t c = 0; c < last.size(); ++c) {
        window.at(t, c) = last[c];
      }
    }
    data.sequences.push_back(std::move(window));
    data.labels.push_back(synth_label(last));
  }
  return data;
}

/// Training artifacts for a small cohort with per-patient variation, built
/// directly (no campaign) so tests stay fast.
inline aps::core::TrainingArtifacts synth_artifacts(int patients) {
  aps::core::TrainingArtifacts artifacts;
  artifacts.target_bg = 120.0;
  for (int p = 0; p < patients; ++p) {
    aps::core::PatientProfile profile;
    profile.basal_rate = 0.8 + 0.07 * p;
    profile.isf = 38.0 + 2.0 * p;
    profile.steady_state_iob = 1.1 + 0.12 * p;
    artifacts.profiles.push_back(profile);

    auto thresholds =
        aps::monitor::default_thresholds(profile.steady_state_iob);
    for (auto& [param, value] : thresholds) {
      value += 0.01 * p;  // per-patient variation the round-trip must keep
    }
    artifacts.patient_thresholds.push_back(thresholds);

    aps::monitor::GuidelineConfig guideline;
    guideline.lambda10 = 82.0 + p;
    guideline.lambda90 = 190.0 + 2.0 * p;
    artifacts.guideline_configs.push_back(guideline);
  }
  artifacts.population_thresholds = aps::monitor::default_thresholds(1.4);
  return artifacts;
}

inline bool decisions_equal(const aps::monitor::Decision& a,
                            const aps::monitor::Decision& b) {
  return a.alarm == b.alarm && a.predicted == b.predicted &&
         a.rule_id == b.rule_id;
}

/// Feed the same stream to both monitors; true iff the Decision streams
/// are identical step for step.
inline bool same_decision_stream(
    aps::monitor::Monitor& a, aps::monitor::Monitor& b,
    const std::vector<aps::monitor::Observation>& stream) {
  a.reset();
  b.reset();
  for (const auto& obs : stream) {
    if (!decisions_equal(a.observe(obs), b.observe(obs))) return false;
  }
  return true;
}

/// The one reference oracle of the serving conformance suites: one scalar
/// monitor::Monitor per patient, built by core::factory_from_bundle and
/// stepped directly with observe() — no engine, shard, lane or pool in
/// between. Served decisions are pinned bit-identical to it.
class ScalarOracle {
 public:
  explicit ScalarOracle(const aps::core::ArtifactBundle& bundle)
      : bundle_(bundle) {}

  void open(const std::string& patient, const std::string& monitor_name,
            int patient_index) {
    auto it = factories_.find(monitor_name);
    if (it == factories_.end()) {
      it = factories_
               .emplace(monitor_name,
                        aps::core::factory_from_bundle(bundle_, monitor_name))
               .first;
    }
    adopt(patient, it->second(patient_index));
  }
  /// Continue an already-running monitor, e.g. SessionSnapshot::monitor.
  void adopt(const std::string& patient,
             std::unique_ptr<aps::monitor::Monitor> monitor) {
    if (!sessions_.emplace(patient, Session{std::move(monitor), 0}).second) {
      throw std::invalid_argument("oracle already holds '" + patient + "'");
    }
  }
  void close(const std::string& patient) { sessions_.erase(patient); }

  aps::monitor::Decision feed(const std::string& patient,
                              const aps::monitor::Observation& obs) {
    Session& session = sessions_.at(patient);
    const aps::monitor::Decision decision = session.monitor->observe(obs);
    if (decision.alarm) ++session.alarms;
    return decision;
  }

  [[nodiscard]] std::uint64_t alarms(const std::string& patient) const {
    return sessions_.at(patient).alarms;
  }
  [[nodiscard]] const aps::monitor::Monitor& monitor(
      const std::string& patient) const {
    return *sessions_.at(patient).monitor;
  }
  [[nodiscard]] std::size_t size() const { return sessions_.size(); }

 private:
  struct Session {
    std::unique_ptr<aps::monitor::Monitor> monitor;
    std::uint64_t alarms = 0;
  };
  const aps::core::ArtifactBundle& bundle_;
  std::map<std::string, aps::sim::MonitorFactory> factories_;
  std::map<std::string, Session> sessions_;
};

/// Ids of this process's live OS threads (the entries of /proc/self/task),
/// or nullopt where that directory is unreadable. Comparing id sets, not
/// counts, also catches a thread that exits while another starts.
inline std::optional<std::set<std::string>> live_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  std::set<std::string> tids;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (ec) return std::nullopt;
    tids.insert(it->path().filename().string());
  }
  return tids;
}

}  // namespace aps::testutil
