// Replica-sharded serving: EngineGroup is the one serving entry point
// (net::IngestServer drives it; a one-replica group is the single-engine
// deployment). It partitions sessions across N MonitorEngine replica cores
// by consistent hashing on patient id, scaling the serving plane past one
// engine = one shard table = one lock. Its decisions are pinned
// bit-identical to the one reference oracle — a scalar monitor::Monitor
// per session from core::factory_from_bundle, stepped directly.
//
// Topology: each replica owns its own engine (shard tables, sessions,
// latency series) and ONE dedicated worker thread that drains a bounded
// lock-free MPSC ingest queue. Frontend threads never run model code — a
// group feed() partitions the tick batch by owning replica, enqueues one
// tick job per replica, and blocks until every worker reports completion;
// decisions are then merged back to the caller's indices. Per-session
// results are invariant to the replica count: sessions are independent
// streams, a session's inputs all land on its owning replica in batch
// order, and every decision is written at its fixed input index (pinned by
// the equivalence suite against a single engine).
//
// Backpressure and overload: the ingest queues are bounded — a full queue
// makes feed() spin-yield and count serve_group_backpressure_total rather
// than queue unboundedly. Under deadline pressure (a worker picks a tick
// job up later than GroupConfig::tick_deadline_us after enqueue) the
// replica serves that tick degraded: sessions whose shard carries a
// degrade twin (lstm -> dt by default) are answered by the cheap twin
// while the primary monitor ingests the observation, so control ticks are
// never missed and the primary stream resumes bit-identically. Degraded
// cycles surface in serve_degraded_ticks_total and
// LatencySummary::degraded_ticks.
//
// Session ids encode the owning replica in the top bits
// ((replica << 24) | engine-local id), so routing a frame or a close is
// one shift — no group-level session table exists.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mpsc_queue.h"
#include "serve/admission.h"
#include "serve/engine.h"

namespace aps::serve {

/// Thrown by feed() once shutdown() has begun: the caller's tick was NOT
/// enqueued (nothing partial happened) and the group is quiescing.
class ShutdownError : public std::runtime_error {
 public:
  ShutdownError() : std::runtime_error("EngineGroup is shut down") {}
};

struct GroupConfig {
  /// Engine replicas (1..255; the replica index lives in the session id's
  /// top 8 bits).
  std::size_t replicas = 2;
  /// Virtual nodes per replica on the consistent-hash ring. More vnodes =
  /// smoother patient distribution; 64 keeps the imbalance under a few
  /// percent at 100k sessions.
  std::size_t virtual_nodes = 64;
  /// Bounded ingest queue depth per replica (rounded up to a power of
  /// two). A full queue is explicit backpressure, never an allocation.
  std::size_t queue_capacity = 1024;
  /// Overload deadline: if a worker picks a tick job up more than this
  /// many microseconds after it was enqueued, the replica serves that tick
  /// in FeedMode::kDegraded (twin-answered for degradable shards) instead
  /// of letting control ticks slip further. 0 disables degradation.
  std::uint32_t tick_deadline_us = 0;
  /// Chunk each replica's feed partition into jobs of at most this many
  /// ticks (0 = one job per replica per feed, the historical behavior).
  /// Chunking lets a slow replica's queue genuinely fill — making queue
  /// occupancy a real overload signal and try_push backpressure reachable —
  /// at the cost of per-job overhead. Decisions are unaffected: chunks of
  /// one replica run in order on its single worker.
  std::size_t max_ticks_per_job = 0;
  /// Admission control policy (disabled by default; see admission.h).
  AdmissionConfig admission = {};
  /// Configuration for every replica engine. `threads` 0 is normalized to
  /// 1 (one thread-affine worker per replica is the scaling unit; inner
  /// engine pools would oversubscribe). When `registry` is null the group
  /// shares one registry across all replicas (the global one, or a
  /// group-owned one with telemetry off) so group-level series aggregate.
  EngineConfig engine = {};
};

/// FNV-1a 64-bit hash — placement must be stable across runs and standard
/// libraries (std::hash is not), so record/replay and multi-process
/// deployments agree on session ownership.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Ring position for a key: FNV-1a plus a splitmix64 avalanche finalizer.
/// Raw FNV-1a leaves keys that share a long prefix and differ in a short
/// numeric suffix — exactly the "patient-<n>" id shape — clustered within
/// ~127 * prime of each other (the final byte is one xor-multiply from the
/// output), which collapses whole cohorts onto a handful of ring points
/// and can starve replicas. The finalizer disperses every cluster across
/// the full 64-bit ring; measured imbalance at 100k ids over 64 vnodes is
/// under 1.25x.
[[nodiscard]] constexpr std::uint64_t ring_hash(std::string_view s) {
  std::uint64_t h = fnv1a64(s);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

class EngineGroup {
 public:
  /// Bits of a group SessionId holding the engine-local id; the replica
  /// index occupies the bits above.
  static constexpr std::uint32_t kReplicaShift = 24;
  static constexpr SessionId kLocalMask = (SessionId{1} << kReplicaShift) - 1;

  explicit EngineGroup(GroupConfig config = {});
  ~EngineGroup();
  EngineGroup(const EngineGroup&) = delete;
  EngineGroup& operator=(const EngineGroup&) = delete;

  /// Quiesce the group: any in-flight feed completes its barrier, later
  /// feeds fail cleanly with ShutdownError (nothing enqueued), and every
  /// worker drains its queue and joins. Idempotent and safe to race with
  /// concurrent feeds — the destructor calls it, but calling it earlier
  /// lets tests exercise the feed-while-shutting-down path with the group
  /// object still alive.
  void shutdown();

  // -- Topology --

  [[nodiscard]] std::size_t replicas() const { return replicas_.size(); }
  /// Owning replica for a patient id (consistent-hash ring lookup).
  [[nodiscard]] std::size_t replica_of(std::string_view patient_id) const;
  [[nodiscard]] static std::uint32_t replica_of_session(SessionId id) {
    return id >> kReplicaShift;
  }
  /// Direct access to one replica engine (tests, introspection).
  [[nodiscard]] MonitorEngine& replica(std::size_t r) {
    return *replicas_[r]->engine;
  }

  // -- Monitor registry (forwarded to every replica; generations stay in
  //    lockstep because every replica sees the same register_* sequence) --

  void register_monitor(const std::string& name,
                        aps::sim::MonitorFactory factory, int cohort = -1);
  void register_bundle(const aps::core::ArtifactBundle& bundle);
  void register_bundle_file(const std::string& path);
  [[nodiscard]] std::vector<std::string> registered_monitors() const;
  [[nodiscard]] std::uint64_t generation() const;

  // -- Session registry --

  SessionId open_session(const std::string& patient_id,
                         const std::string& monitor_name,
                         int patient_index = 0);
  void close_session(SessionId id);
  [[nodiscard]] std::optional<SessionId> find_session(
      const std::string& patient_id) const;
  [[nodiscard]] std::size_t session_count() const;

  // -- Streaming --

  /// Fan a tick batch out to the owning replicas (parallel workers) and
  /// merge decisions deterministically: decisions[i] answers inputs[i]
  /// regardless of replica count, queue timing, or worker scheduling.
  /// Session ids must be group ids from THIS group; per-replica input
  /// order (and thus multi-input-per-session semantics) follows batch
  /// order. A replica failure (unknown session) is rethrown here after
  /// all replicas finish their partition.
  void feed(std::span<const SessionInput> inputs,
            std::span<aps::monitor::Decision> decisions);
  /// Admission-aware variant: outcomes[i] says whether inputs[i] was
  /// served or shed (and why). `outcomes` must match `inputs` in size or
  /// be empty (identical to the 2-arg overload). A shed input's decision
  /// is the default no-alarm Decision — check the outcome first. Shedding
  /// only happens with admission enabled and the group in kShed.
  void feed(std::span<const SessionInput> inputs,
            std::span<aps::monitor::Decision> decisions,
            std::span<TickOutcome> outcomes);
  std::vector<aps::monitor::Decision> feed(
      std::span<const SessionInput> inputs);
  /// Single-session control-path tick, routed directly (no queue, no
  /// deadline accounting).
  aps::monitor::Decision feed_one(SessionId id,
                                  const aps::monitor::Observation& obs);
  void reset_session(SessionId id);

  // -- Snapshot / restore --

  [[nodiscard]] SessionSnapshot snapshot(SessionId id) const;
  /// Restore routes by the snapshot's patient id, so a session always
  /// lands on its ring-owned replica (a group restored elsewhere keeps
  /// identical placement).
  SessionId restore(const SessionSnapshot& snap);

  // -- Introspection --

  [[nodiscard]] SessionStats stats(SessionId id) const;
  [[nodiscard]] std::uint64_t total_cycles() const;
  /// Merged latency summary: exact totals (ticks/cycles/degraded/seconds)
  /// are summed across replicas; percentiles read the shared
  /// serve_tick_latency_us series, which every replica reports into.
  [[nodiscard]] LatencySummary latency() const;
  void reset_latency();
  /// The registry every replica (and the group's own series) reports into.
  [[nodiscard]] aps::obs::Registry& registry() const { return *registry_; }
  /// The group's admission controller (always constructed; no-op unless
  /// GroupConfig::admission.enabled).
  [[nodiscard]] AdmissionController& admission() const { return *admission_; }

 private:
  /// One enqueued tick chunk: the replica's scratch buffers (guarded by
  /// feed_mu_) hold the payload; the job carries the [begin, end) range
  /// into them, the completion channel, the enqueue timestamp for
  /// deadline accounting, and whether admission already decided the
  /// chunk runs degraded.
  struct TickJob {
    std::atomic<std::size_t>* pending = nullptr;
    std::chrono::steady_clock::time_point enqueued;
    std::size_t begin = 0;
    std::size_t end = 0;
    bool degrade = false;
  };

  struct Replica {
    std::unique_ptr<MonitorEngine> engine;
    MpscQueue<TickJob> queue;
    std::atomic<std::uint64_t> pushed{0};  ///< push ticket (worker wakeup)
    std::thread worker;
    // Per-feed scratch, valid while a job for this replica is in flight
    // (feed_mu_ serializes group feeds).
    std::vector<SessionId> local_sessions;  ///< engine-LOCAL ids
    std::vector<aps::monitor::Observation> local_obs;
    std::vector<aps::monitor::Decision> local_decisions;
    std::vector<std::uint32_t> global_index;  ///< input index per local row
    std::exception_ptr error;
    aps::obs::Gauge* queue_depth = nullptr;
    aps::obs::Gauge* sessions_gauge = nullptr;
    /// Tenant index (AdmissionController::tenant_index) per engine-local
    /// session id; written at open/restore, read by feed's shed pre-pass.
    /// Guarded by the group's tenant_mu_. Only maintained when admission
    /// is enabled.
    std::vector<std::uint32_t> tenant_of_local;

    explicit Replica(std::size_t queue_capacity) : queue(queue_capacity) {}
  };

  [[nodiscard]] Replica& checked_replica(SessionId id) const;
  void worker_loop(Replica& replica);
  void run_job(Replica& replica, const TickJob& job);
  void record_tenant(Replica& replica, SessionId local,
                     std::string_view patient_id);

  GroupConfig config_;
  std::unique_ptr<aps::obs::Registry> owned_registry_;
  aps::obs::Registry* registry_ = nullptr;
  std::unique_ptr<AdmissionController> admission_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;  ///< sorted
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<bool> stop_{false};
  std::once_flag shutdown_once_;
  std::mutex feed_mu_;  ///< serializes group-level feed fan-outs
  std::mutex tenant_mu_;  ///< guards every replica's tenant_of_local table
  aps::obs::Counter* backpressure_ = nullptr;
  aps::obs::Counter* group_feeds_ = nullptr;
  // Feed-local scratch for the shed pre-pass (guarded by feed_mu_).
  std::vector<std::uint32_t> feed_tenants_;  ///< tenant index per input
  std::vector<std::uint8_t> feed_shed_;      ///< 1 = input shed this feed
};

}  // namespace aps::serve
