// Network ingest bench: how much does the TCP front door cost on top of
// direct engine feeds? Three stages over the same workload:
//
//   1. record-live    direct engine.feed() batches, recorded to a listfile
//   2. replay-direct  replay_listfile() re-drives a fresh engine from the
//                     file (no sockets) and verifies every decision
//   3. replay-socket  the same file drives a real IngestServer (over a
//                     one-replica EngineGroup) through a loopback
//                     BlockingClient (window flow control), and every
//                     decision fanned back is compared against the
//                     recorded one
//
// The listfile lives in a fresh directory under the system temp directory
// and is removed when the bench exits.
//
// The bench is self-gating: any decision mismatch, dropped frame, or
// protocol error — or a socket path slower than the throughput floor —
// exits nonzero so CI can smoke-gate BENCH_net_ingest.json.
//
// Flags: --sessions=<n> --steps=<n> --cohort=<n> --window=<n>
//        --floor=<cycles/s socket-path gate, 0 disables>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/rng.h"
#include "monitor/caw.h"
#include "net/client.h"
#include "net/listfile.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/group.h"

namespace {

using namespace aps;

/// Small rule-monitor cohort built directly (no campaign) so the bench
/// measures serving + transport, not training.
core::ArtifactBundle rule_bundle(int cohort) {
  core::ArtifactBundle bundle;
  auto& artifacts = bundle.artifacts;
  artifacts.target_bg = 120.0;
  for (int p = 0; p < cohort; ++p) {
    core::PatientProfile profile;
    profile.basal_rate = 0.8 + 0.07 * p;
    profile.isf = 38.0 + 2.0 * p;
    profile.steady_state_iob = 1.1 + 0.12 * p;
    artifacts.profiles.push_back(profile);
    artifacts.patient_thresholds.push_back(
        monitor::default_thresholds(profile.steady_state_iob));
    monitor::GuidelineConfig guideline;
    guideline.lambda10 = 82.0 + p;
    guideline.lambda90 = 190.0 + 2.0 * p;
    artifacts.guideline_configs.push_back(guideline);
  }
  artifacts.population_thresholds = monitor::default_thresholds(1.4);
  return bundle;
}

monitor::Observation synth_observation(Rng& rng, double time_min) {
  monitor::Observation obs;
  obs.time_min = time_min;
  obs.bg = rng.uniform(40.0, 320.0);
  obs.bg_rate = rng.uniform(-8.0, 8.0);
  obs.iob = rng.uniform(0.0, 10.0);
  obs.iob_rate = rng.uniform(-0.5, 0.5);
  obs.commanded_rate = rng.uniform(0.0, 3.0);
  obs.previous_rate = rng.uniform(0.0, 3.0);
  obs.action = static_cast<ControlAction>(rng.uniform_int(0, 3));
  obs.basal_rate = 1.0;
  obs.isf = 40.0;
  return obs;
}

bool decisions_identical(const monitor::Decision& a,
                         const monitor::Decision& b) {
  return a.alarm == b.alarm && a.predicted == b.predicted &&
         a.rule_id == b.rule_id;
}

struct LiveRun {
  std::uint64_t cycles = 0;
  serve::LatencySummary latency;
};

/// Stage 1: direct batched feeds, recorded the way the server records.
LiveRun record_live(serve::MonitorEngine& engine, const std::string& path,
                    std::size_t sessions, std::size_t steps, int cohort) {
  const std::vector<std::string> monitors = {"guideline", "cawot", "cawt"};
  net::ListfileWriter writer(path);
  struct Live {
    serve::SessionId id;
    Rng rng;
  };
  std::vector<Live> live;
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::string& monitor_name = monitors[s % monitors.size()];
    const auto id = engine.open_session(
        "bench/session" + std::to_string(s), monitor_name,
        static_cast<int>(s % static_cast<std::size_t>(cohort)));
    writer.record_open({.key = id,
                        .patient_id = "bench/session" + std::to_string(s),
                        .monitor = monitor_name,
                        .patient_index =
                            static_cast<int>(s % static_cast<std::size_t>(
                                                     cohort))});
    live.push_back({id, Rng(9000 + s)});
  }
  LiveRun result;
  std::vector<serve::SessionInput> batch(live.size());
  std::vector<monitor::Decision> decisions(live.size());
  for (std::size_t k = 0; k < steps; ++k) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      batch[i] = {live[i].id,
                  synth_observation(live[i].rng,
                                    5.0 * static_cast<double>(k))};
      writer.record_tick({.key = live[i].id, .seq = k, .obs = batch[i].obs});
    }
    engine.feed(batch, decisions);
    for (std::size_t i = 0; i < live.size(); ++i) {
      writer.record_decision(
          {.key = live[i].id, .seq = k, .decision = decisions[i]});
    }
    result.cycles += batch.size();
  }
  for (const auto& session : live) {
    writer.record_close({.key = session.id});
    engine.close_session(session.id);
  }
  writer.finish();
  result.latency = engine.latency();
  return result;
}

struct SocketRun {
  std::uint64_t ticks = 0;
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;
  serve::LatencySummary latency;
  net::ServerStats server;
};

/// Stage 3: re-drive the recorded file through a real loopback server.
/// `window` bounds in-flight ticks so the client never overruns the
/// server's per-connection queue into multi-tick latency.
SocketRun replay_over_socket(const std::string& path,
                             const core::ArtifactBundle& bundle,
                             std::size_t window) {
  obs::Registry registry;
  serve::GroupConfig group_config;
  group_config.replicas = 1;
  group_config.engine.threads = 2;
  group_config.engine.registry = &registry;
  serve::EngineGroup group(group_config);
  group.register_bundle(bundle);
  net::ServerConfig config;
  config.registry = &registry;
  config.max_queued_events = window * 2;
  net::IngestServer server(group, config);
  server.start();

  SocketRun result;
  net::BlockingClient client("127.0.0.1", server.port(), "bench replayer");
  // Per-key queue of recorded decisions, matched as live ones fan back.
  std::unordered_map<std::uint64_t, std::deque<monitor::Decision>> recorded;
  std::unordered_map<std::uint64_t, std::uint64_t> outstanding;
  std::uint64_t in_flight = 0;

  const auto consume_one = [&] {
    const net::DecisionMsg msg = client.recv_decision();
    auto& queue = recorded[msg.token];
    if (queue.empty()) {
      ++result.mismatches;  // decision with no recorded counterpart
    } else {
      ++result.compared;
      if (!decisions_identical(msg.decision, queue.front())) {
        ++result.mismatches;
      }
      queue.pop_front();
    }
    --in_flight;
    --outstanding[msg.token];
  };

  net::ListfileReader reader(path);
  while (auto record = reader.next()) {
    switch (record->kind) {
      case net::RecordKind::kOpen:
        client.open_session(record->open.key, record->open.patient_id,
                            record->open.monitor,
                            record->open.patient_index);
        break;
      case net::RecordKind::kTick:
        client.send_tick(record->tick.key, record->tick.seq,
                         record->tick.obs);
        ++result.ticks;
        ++in_flight;
        ++outstanding[record->tick.key];
        while (in_flight >= window) consume_one();
        break;
      case net::RecordKind::kDecision:
        recorded[record->decision.key].push_back(
            record->decision.decision);
        break;
      case net::RecordKind::kClose:
        while (outstanding[record->close.key] > 0) consume_one();
        (void)client.close_session(record->close.key);
        break;
      case net::RecordKind::kSync:
        break;
    }
  }
  while (in_flight > 0) consume_one();
  for (const auto& [key, queue] : recorded) {
    result.mismatches += queue.size();  // recorded but never reproduced
  }
  result.latency = group.latency();
  server.stop();
  result.server = server.stats();
  return result;
}

/// A fresh directory under the system temp directory, removed (with
/// everything in it) on scope exit.
class ScratchDir {
 public:
  ScratchDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "aps_net_ingest.XXXXXX")
            .string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + pattern);
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const auto sessions =
      static_cast<std::size_t>(flags.get_int("sessions", 64));
  const auto steps = static_cast<std::size_t>(flags.get_int("steps", 300));
  const int cohort = flags.get_int("cohort", 8);
  const auto window = static_cast<std::size_t>(flags.get_int("window", 256));
  const double floor_cps = flags.get_double("floor", 10000.0);
  const ScratchDir scratch;
  const std::string path = (scratch.path() / "net_ingest.listfile").string();
  const std::uint64_t total = sessions * steps;

  std::printf("== net ingest bench: %zu sessions x %zu steps ==\n\n",
              sessions, steps);
  aps::bench::BenchRecorder recorder("net_ingest");
  const auto bundle = rule_bundle(cohort);

  // 1. Record the live run.
  LiveRun live;
  {
    obs::Registry registry;
    serve::MonitorEngine engine({.threads = 2, .registry = &registry});
    engine.register_bundle(bundle);
    const double rss = aps::bench::peak_rss_mb();
    const auto t0 = std::chrono::steady_clock::now();
    live = record_live(engine, path, sessions, steps, cohort);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    recorder.stage_done("record-live", wall, live.cycles, rss,
                        {{"p50_us", live.latency.p50_us},
                         {"p99_us", live.latency.p99_us}});
    std::printf("record-live:    %8.0f cycles/s  (p50 %.1fus p99 %.1fus)\n",
                static_cast<double>(live.cycles) / wall,
                live.latency.p50_us, live.latency.p99_us);
  }

  // 2. Replay the file straight into a fresh engine.
  net::ReplayResult direct;
  {
    serve::MonitorEngine engine({.threads = 2});
    engine.register_bundle(bundle);
    const double rss = aps::bench::peak_rss_mb();
    const auto t0 = std::chrono::steady_clock::now();
    direct = net::replay_listfile(path, engine);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    recorder.stage_done("replay-direct", wall, direct.ticks, rss,
                        {{"mismatches",
                          static_cast<double>(direct.mismatches)}});
    std::printf("replay-direct:  %8.0f cycles/s  (%ju compared, %ju "
                "mismatches)\n",
                static_cast<double>(direct.ticks) / wall,
                static_cast<std::uintmax_t>(direct.compared),
                static_cast<std::uintmax_t>(direct.mismatches));
  }

  // 3. Replay through a real loopback server.
  SocketRun socket_run;
  double socket_cps = 0.0;
  {
    const double rss = aps::bench::peak_rss_mb();
    const auto t0 = std::chrono::steady_clock::now();
    socket_run = replay_over_socket(path, bundle, window);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    socket_cps = static_cast<double>(socket_run.ticks) / wall;
    recorder.stage_done(
        "replay-socket", wall, socket_run.ticks, rss,
        {{"p50_us", socket_run.latency.p50_us},
         {"p99_us", socket_run.latency.p99_us},
         {"mismatches", static_cast<double>(socket_run.mismatches)},
         {"batches", static_cast<double>(socket_run.server.batches)},
         {"bytes_in", static_cast<double>(socket_run.server.bytes_in)},
         {"bytes_out", static_cast<double>(socket_run.server.bytes_out)}});
    std::printf("replay-socket:  %8.0f cycles/s  (p50 %.1fus p99 %.1fus, "
                "%ju batches, %ju mismatches)\n",
                socket_cps, socket_run.latency.p50_us,
                socket_run.latency.p99_us,
                static_cast<std::uintmax_t>(socket_run.server.batches),
                static_cast<std::uintmax_t>(socket_run.mismatches));
  }
  recorder.flush();

  // ---- Self-gates ----------------------------------------------------------
  int failures = 0;
  const auto gate = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "GATE FAILED: %s\n", what);
      ++failures;
    }
  };
  gate(live.cycles == total, "live run served every cycle");
  gate(direct.mismatches == 0 && direct.compared == total,
       "direct replay reproduces every recorded decision");
  gate(socket_run.mismatches == 0 && socket_run.compared == total,
       "socket replay reproduces every recorded decision");
  gate(socket_run.server.frames_dropped == 0, "no frames dropped");
  gate(socket_run.server.protocol_errors == 0, "no protocol errors");
  gate(floor_cps <= 0.0 || socket_cps >= floor_cps,
       "socket path above the throughput floor");
  if (failures == 0) {
    std::printf("\nall gates passed (socket path %.0f cycles/s)\n",
                socket_cps);
  }
  return failures == 0 ? 0 : 1;
}
