// Monitor serving engine: multiplexes thousands of independent per-patient
// streaming sessions over the batched SoA monitor backend.
//
// MonitorEngine is the replica core of the serving stack: the one
// thread-safe serving entry point is serve::EngineGroup (group.h), which
// owns N engines and is what net::IngestServer drives; an engine serves
// the sessions hashed to its replica.
//
// Sessions are sharded by (monitor name, model generation): every session
// of a shard is one contiguous lane behind a single monitor::MonitorBatch,
// so a control tick costs one DecisionTree/Mlp/Lstm::predict_batch call
// per shard instead of one model call per session. The one reference
// oracle is a scalar monitor::Monitor per session, built by the same
// factory (core::factory_from_bundle) and stepped directly — the
// conformance suites pin every served decision bit-identical to it. Large
// ticks additionally split each shard's lanes into chunks that run across
// the worker pool; every batch implementation is lane-independent, so
// output never depends on chunking or threads.
//
// Model generations: register_bundle / register_monitor atomically bump a
// generation counter. Sessions pin the factories (and the shared immutable
// models behind them) that were current when they opened — a hot reload
// never perturbs live sessions; new sessions pick up the new generation
// and land in fresh shards. register_bundle_file loads a bundle from disk
// first, so a corrupt file surfaces as io::IoError with the registry (and
// every live session) untouched.
//
// Thread model: the public API is internally synchronized — any number of
// frontend threads may open/close/feed/reload concurrently. A feed tick
// holds the engine lock (concurrent feeds serialize, each parallelizing
// internally over the pool), which also gives reloads tick-boundary
// semantics: in-flight ticks finish on the old generation, later ticks see
// the new one.
//
// Telemetry: the engine reports into an obs::Registry — tick latency
// histograms (whole-tick and per-shard chunk), session open/close/
// restore/reload counters, a generation gauge, tick-phase trace spans
// (ingest -> dispatch -> predict -> merge), and DOOD-style per-shard
// drift detectors seeded from the bundle's training-time feature stats
// (serve_drift_score gauges + drift_alerts_total). All hot-path updates
// are relaxed atomics on per-thread shards; scraping never takes the
// engine lock. Everything here is observational: decisions stay
// bit-identical with telemetry on, off, or racing a scrape.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/monitor_factory.h"
#include "monitor/monitor.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "serve/shard.h"
#include "sim/runner.h"

namespace aps::serve {

/// One streaming step for one session.
struct SessionInput {
  SessionId session = 0;
  aps::monitor::Observation obs;
};

struct SessionStats {
  std::uint64_t cycles = 0;
  std::uint64_t alarms = 0;
};

/// Point-in-time copy of a session, including the monitor's internal
/// observation state (LSTM window, guideline recovery counters). Restoring
/// it — in this engine or a fresh one — continues the stream exactly where
/// the snapshot was taken.
struct SessionSnapshot {
  std::string patient_id;
  std::string monitor_name;
  int patient_index = 0;
  SessionStats stats;
  std::unique_ptr<aps::monitor::Monitor> monitor;
};

/// How a feed tick is served. kNormal runs every session's own monitor;
/// kDegraded is the overload escape hatch — sessions whose shard carries a
/// degrade twin (see EngineConfig::degrade) are answered by the cheap twin
/// while their primary monitor only ingests the observation, so the
/// primary's stream continues bit-identically once pressure subsides.
/// Callers (the replica worker in serve::EngineGroup) pick the mode per
/// tick from deadline pressure; sessions without a twin always serve
/// normally.
enum class FeedMode { kNormal, kDegraded };

struct EngineConfig {
  /// Worker threads for batched feeds; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Metric registry the engine reports into; null = the process-global
  /// obs::Registry. Counters/gauges/histograms are registry-owned series,
  /// so several engines sharing one registry aggregate.
  aps::obs::Registry* registry = nullptr;
  /// false: skip the optional telemetry — tick-phase spans, per-shard
  /// latency histograms, and drift detection — and report the mandatory
  /// series (tick latency, counters) into a private registry instead of
  /// the global one. The A/B overhead baseline in bench/serve_throughput.
  bool telemetry = true;
  /// Inference precision applied to every shard this engine creates.
  /// kF64 is the reference path; kF32 routes MLP/LSTM lanes through the
  /// float32 kernels (tolerance-pinned, see monitor::Precision). Monitors
  /// without a float32 path ignore it.
  aps::monitor::Precision precision = aps::monitor::Precision::kF64;
  /// Drift-detector tuning for shards whose generation carries
  /// training stats.
  aps::obs::DriftConfig drift = {};
  /// Overload degrade map: shards of a `first`
  /// monitor get a twin of the `second` monitor from the same bundle
  /// generation, enabling FeedMode::kDegraded ticks. The default degrades
  /// the LSTM (window-bound, transcendental-heavy) to the decision tree —
  /// the cheapest ML monitor in every bundle. Empty disables degradation.
  std::vector<std::pair<std::string, std::string>> degrade = {{"lstm", "dt"}};
};

/// One shard's chunk-latency distribution ("<monitor>@g<generation>").
struct ShardLatencySummary {
  std::string shard;
  std::uint64_t chunks = 0;  ///< chunk observations merged into the series
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Per-tick feed() latency distribution plus aggregate throughput.
/// Percentiles/max come from the engine's serve_tick_latency_us histogram
/// (the same series a registry scrape exposes); ticks/cycles/seconds are
/// exact engine totals.
struct LatencySummary {
  std::uint64_t ticks = 0;    ///< feed() calls measured
  std::uint64_t cycles = 0;   ///< session-cycles served by those calls
  double seconds = 0.0;       ///< total wall time inside feed()
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;        ///< slowest measured tick
  /// Session-cycles answered by a degrade twin (FeedMode::kDegraded ticks
  /// on shards with a twin) — zero below deadline pressure.
  std::uint64_t degraded_ticks = 0;
  /// Per-shard chunk latency (telemetry on).
  std::vector<ShardLatencySummary> shards;
  [[nodiscard]] double cycles_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(cycles) / seconds : 0.0;
  }
};

class MonitorEngine {
 public:
  explicit MonitorEngine(EngineConfig config = {});

  // -- Monitor registry --

  /// Register a named monitor prototype (bumping the model generation).
  /// Replaces an existing name; live sessions keep the factory they were
  /// opened with. `cohort` bounds patient_index when >= 0 (-1 = unknown,
  /// range errors then surface from the factory itself).
  void register_monitor(const std::string& name,
                        aps::sim::MonitorFactory factory, int cohort = -1);
  /// Register every monitor constructible from the bundle under its
  /// standard name ("guideline", "cawt", "dt", ...) as ONE new generation.
  void register_bundle(const aps::core::ArtifactBundle& bundle);
  /// Load a bundle file and register it. A corrupt/truncated file throws
  /// io::IoError before any registry mutation: existing sessions and the
  /// current generation are untouched.
  void register_bundle_file(const std::string& path);
  [[nodiscard]] std::vector<std::string> registered_monitors() const;
  /// Monotonic model generation; bumped by every register_* call.
  [[nodiscard]] std::uint64_t generation() const;

  // -- Session registry (keyed by patient id) --

  /// Open a streaming session for `patient_id` running `monitor_name`.
  /// `patient_index` selects the per-patient artifact row (thresholds,
  /// percentiles) inside the monitor factory. Throws std::invalid_argument
  /// for duplicate patient ids or unknown monitor names, and
  /// std::out_of_range for a patient_index outside the registered cohort.
  SessionId open_session(const std::string& patient_id,
                         const std::string& monitor_name,
                         int patient_index = 0);
  void close_session(SessionId id);
  [[nodiscard]] std::optional<SessionId> find_session(
      const std::string& patient_id) const;
  [[nodiscard]] std::size_t session_count() const;

  // -- Streaming --

  /// Process one batch; decisions[i] answers inputs[i]. Inputs may target
  /// any mix of sessions; multiple inputs for one session are applied in
  /// batch order. Throws std::out_of_range for unknown/closed sessions
  /// (before any input is processed).
  std::vector<aps::monitor::Decision> feed(
      std::span<const SessionInput> inputs);
  /// Allocation-free variant for hot callers (the network front door's
  /// tick loop): decisions.size() must equal inputs.size(); decisions[i]
  /// answers inputs[i]. Same validation and ordering semantics as above.
  void feed(std::span<const SessionInput> inputs,
            std::span<aps::monitor::Decision> decisions);
  /// Structure-of-arrays variant — the replica worker's hot path:
  /// decisions[i] answers obs[i] for sessions[i], same validation and
  /// ordering semantics as the AoS overloads but with no per-tick copy of
  /// the observation payload when the batch is already grouped (steady
  /// state: one input per session, shard-contiguous). `mode` selects the
  /// overload policy for this tick (see FeedMode).
  void feed(std::span<const SessionId> sessions,
            std::span<const aps::monitor::Observation> obs,
            std::span<aps::monitor::Decision> decisions,
            FeedMode mode = FeedMode::kNormal);
  aps::monitor::Decision feed_one(SessionId id,
                                  const aps::monitor::Observation& obs);
  /// Reset the session's monitor state (new trace, same patient).
  void reset_session(SessionId id);

  // -- Snapshot / restore --

  [[nodiscard]] SessionSnapshot snapshot(SessionId id) const;
  /// Re-create a session from a snapshot (the patient id must be free).
  /// The snapshot's monitor name must exist in THIS engine's registry and
  /// its patient_index must lie inside the registered cohort — a snapshot
  /// taken against a registry that has since changed shape yields a clear
  /// std::invalid_argument / std::out_of_range instead of serving with
  /// dangling per-patient state.
  SessionId restore(const SessionSnapshot& snap);

  // -- Introspection --

  [[nodiscard]] SessionStats stats(SessionId id) const;
  [[nodiscard]] std::uint64_t total_cycles() const;
  [[nodiscard]] std::size_t thread_count() const {
    return pool_.thread_count();
  }
  /// Latency distribution over the feed() ticks since the last reset.
  [[nodiscard]] LatencySummary latency() const;
  void reset_latency();
  /// Registry this engine reports into (the configured one, the global
  /// one, or the private one when telemetry is off) — scrape it for tick
  /// latency histograms, session/reload counters, and drift gauges.
  [[nodiscard]] aps::obs::Registry& registry() const { return *registry_; }

 private:
  struct Session {
    std::string patient_id;
    std::string monitor_name;
    int patient_index = 0;
    SessionStats stats;
    bool open = false;
    // The shard lane this session occupies.
    ServeShard* shard = nullptr;
    std::size_t lane = 0;
  };

  struct RegisteredMonitor {
    aps::sim::MonitorFactory factory;
    std::uint64_t version = 0;  ///< generation at registration
    int cohort = -1;            ///< patient_index bound; -1 = unknown
    /// Training-time feature stats of the registered bundle (null for
    /// bare register_monitor calls); seeds drift detectors of shards
    /// created for this generation.
    std::shared_ptr<const aps::obs::TrainingStats> stats;
  };

  /// Registry-owned series handles, resolved once at construction.
  struct Metrics {
    aps::obs::Counter* sessions_opened = nullptr;
    aps::obs::Counter* sessions_closed = nullptr;
    aps::obs::Counter* sessions_restored = nullptr;
    aps::obs::Counter* session_resets = nullptr;
    aps::obs::Counter* reloads = nullptr;
    aps::obs::Gauge* sessions_open = nullptr;
    aps::obs::Gauge* generation = nullptr;
    aps::obs::Counter* ticks = nullptr;
    aps::obs::Counter* cycles = nullptr;
    aps::obs::Counter* alarms = nullptr;
    aps::obs::Counter* drift_alerts = nullptr;
    aps::obs::Counter* drift_samples = nullptr;
    aps::obs::Counter* degraded_ticks = nullptr;
    aps::obs::Histogram* tick_latency = nullptr;
    aps::obs::Histogram* phase_ingest = nullptr;
    aps::obs::Histogram* phase_dispatch = nullptr;
    aps::obs::Histogram* phase_predict = nullptr;
    aps::obs::Histogram* phase_merge = nullptr;
  };

  [[nodiscard]] Session& checked_session(SessionId id);
  [[nodiscard]] const Session& checked_session(SessionId id) const;
  [[nodiscard]] const RegisteredMonitor& checked_monitor(
      const std::string& monitor_name, int patient_index) const;
  SessionId place_session(Session session,
                          const aps::monitor::Monitor* prototype,
                          const RegisteredMonitor& entry);
  void init_shard_telemetry(ServeShard& shard,
                            const RegisteredMonitor& entry);
  void bump_generation_locked();
  void record_latency(double seconds, std::size_t cycles);
  void accumulate_drift(ServeShard& shard,
                        std::span<const aps::monitor::Observation> obs);
  /// Tick-sampled drift accounting: true on the ticks that pay the drift
  /// feature-extraction + gauge-refresh cost (every drift.sample_every_ticks
  /// feeds). Keeps the telemetry overhead inside its <2% budget.
  [[nodiscard]] bool drift_tick_due();
  void feed_locked(std::span<const SessionId> sessions,
                   std::span<const aps::monitor::Observation> obs,
                   std::span<aps::monitor::Decision> decisions, FeedMode mode);
  void feed_sharded(std::span<const SessionId> sessions,
                    std::span<const aps::monitor::Observation> obs,
                    std::span<aps::monitor::Decision> decisions, FeedMode mode);

  EngineConfig config_;
  aps::ThreadPool pool_;
  std::unique_ptr<aps::obs::Registry> owned_registry_;  ///< telemetry off
  aps::obs::Registry* registry_ = nullptr;
  Metrics metrics_;

  mutable std::mutex mu_;  ///< guards everything below
  std::unordered_map<std::string, RegisteredMonitor> monitors_;
  std::uint64_t generation_ = 0;
  std::vector<std::unique_ptr<ServeShard>> shards_;
  std::uint32_t next_shard_ordinal_ = 0;
  std::vector<Session> sessions_;
  std::vector<SessionId> free_ids_;
  std::unordered_map<std::string, SessionId> by_patient_;
  std::size_t open_count_ = 0;
  std::uint64_t total_cycles_ = 0;

  // Exact tick totals since the last reset_latency(); the distribution
  // itself lives in the serve_tick_latency_us histogram.
  std::uint64_t latency_ticks_ = 0;
  std::uint64_t latency_cycles_ = 0;
  std::uint64_t latency_degraded_ = 0;
  double latency_seconds_ = 0.0;
  std::uint64_t drift_tick_ = 0;  ///< feed ticks since construction (sampling)

  // Scratch reused across feed() calls to avoid per-batch allocation churn.
  std::vector<SessionId> aos_sessions_;  ///< AoS feed() SoA repack
  std::vector<aps::monitor::Observation> aos_obs_;
  std::vector<std::uint32_t> order_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> groups_;
  std::vector<aps::monitor::Observation> sorted_obs_;
  std::vector<aps::monitor::Decision> sorted_decisions_;
  std::vector<std::uint32_t> round_of_;
  std::vector<std::uint32_t> occ_;        ///< per-session occurrence count
  std::vector<std::uint32_t> occ_epoch_;  ///< lazy-reset epoch per session
  std::uint32_t feed_epoch_ = 0;
  std::vector<std::size_t> lanes_flat_;
  std::vector<std::uint32_t> src_flat_;
  std::vector<ServeShard*> chunk_shards_;  ///< shard behind each chunk
};

}  // namespace aps::serve
