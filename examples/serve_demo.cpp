// End-to-end serving walkthrough: learn monitor artifacts from a quick
// fault-injection campaign, persist them, load them back in a *fresh*
// one-replica EngineGroup (as a deployed server would — no retraining),
// and stream the recorded cohort traces through concurrent per-patient
// sessions.
//
// Sessions of one monitor land in contiguous SoA lanes behind one batched
// model call per tick, and a hot bundle reload (step 5) bumps the model
// generation under live sessions without perturbing them.
//
// Flags:
//   --dir=<path>        artifact output directory (default serve_artifacts)
//   --ml                also train + serve the tiny DT/MLP/LSTM baselines
//   --scenarios=<n>     scenarios replayed per patient (default 6)
//   --threads=<n>       engine worker threads (default: hardware)
//   --metrics           dump the engine's metric registry after serving
//                       (Prometheus text on stdout; --metrics-json for the
//                       JSON exposition instead)
//   --replay=<listfile> skip the cohort stream: re-drive a recorded
//                       session listfile through the loaded engine and
//                       verify the decisions match the recording
//   --listen=<port>     after serving, open the TCP ingest front door on
//                       the port (0 = ephemeral) and accept clients until
//                       stdin closes (or --listen-secs elapses)
//   --record=<listfile> with --listen: record every served session to a
//                       listfile replayable via --replay
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "core/experiment.h"
#include "core/threshold_pipeline.h"
#include "io/artifact_io.h"
#include "net/listfile.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/group.h"
#include "sim/stack.h"

namespace {

using namespace aps;

struct ReplayStats {
  std::size_t sessions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t alarms = 0;
};

/// Replay every recorded trace through one served session per
/// (patient, scenario) pair, batching all sessions cycle by cycle.
ReplayStats replay_cohort(serve::EngineGroup& group,
                          const std::string& monitor_name,
                          const sim::CampaignResult& replay,
                          const core::ExperimentContext& context,
                          int scenarios_per_patient) {
  ReplayStats stats;
  struct Trace {
    serve::SessionId session;
    const sim::SimResult* run;
    double basal_rate;
    double isf;
  };
  std::vector<Trace> traces;
  const auto& by_patient = replay.by_patient;
  for (std::size_t p = 0; p < by_patient.size(); ++p) {
    const auto& profile = context.artifacts.profiles[p];
    const auto count = std::min<std::size_t>(
        by_patient[p].size(), static_cast<std::size_t>(scenarios_per_patient));
    for (std::size_t s = 0; s < count; ++s) {
      const auto id = group.open_session(
          monitor_name + "/patient" + std::to_string(p) + "/scenario" +
              std::to_string(s),
          monitor_name, static_cast<int>(p));
      traces.push_back(
          {id, &by_patient[p][s], profile.basal_rate, profile.isf});
    }
  }
  stats.sessions = traces.size();

  std::size_t steps = 0;
  for (const auto& trace : traces) {
    steps = std::max(steps, trace.run->steps.size());
  }
  std::vector<serve::SessionInput> batch;
  for (std::size_t k = 0; k < steps; ++k) {
    batch.clear();
    for (const auto& trace : traces) {
      if (k >= trace.run->steps.size()) continue;
      batch.push_back({trace.session,
                       core::observation_at(*trace.run, k, trace.basal_rate,
                                            trace.isf)});
    }
    for (const auto& decision : group.feed(batch)) {
      if (decision.alarm) ++stats.alarms;
    }
    stats.cycles += batch.size();
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) try {
  CliFlags flags(argc, argv);
  const std::string dir = flags.get_string("dir", "serve_artifacts");
  const bool with_ml = flags.get_bool("ml", false);
  const int scenarios = flags.get_int("scenarios", 6);
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  const bool metrics_json = flags.get_bool("metrics-json", false);
  const bool metrics = flags.get_bool("metrics", false) || metrics_json;

  // 1. Train: quick campaign + threshold learning (+ tiny ML if asked).
  std::printf("[1/5] running quick training campaign...\n");
  ThreadPool pool;
  core::ExperimentConfig config;
  config.train_ml = with_ml;
  config.ml_data = {.classes = 2, .stride = 10, .max_samples = 5000};
  config.lstm_data = {.classes = 2, .stride = 15, .max_samples = 1500};
  const auto stack = sim::glucosym_openaps_stack();
  const auto context = core::prepare_experiment(stack, config, pool);

  // A small recorded campaign to stream through the engine later (the
  // training pipeline itself is streaming and retains no traces).
  std::vector<fi::Scenario> replay_scenarios(
      context.scenarios.begin(),
      context.scenarios.begin() +
          std::min<std::size_t>(context.scenarios.size(),
                                static_cast<std::size_t>(scenarios)));
  const auto replay = sim::run_campaign(
      stack, replay_scenarios, sim::null_monitor_factory(), {}, &pool);

  // 2. Persist everything a server needs.
  std::filesystem::create_directories(dir);
  const std::string bundle_path = dir + "/bundle.aps";
  io::save_bundle(core::bundle_from_context(context), bundle_path);
  std::printf("[2/5] saved artifact bundle: %s (%ju bytes)\n",
              bundle_path.c_str(),
              static_cast<std::uintmax_t>(
                  std::filesystem::file_size(bundle_path)));

  // 3. Fresh one-replica group, loaded (not retrained) artifacts.
  const core::ArtifactBundle bundle = io::load_bundle(bundle_path);
  serve::GroupConfig group_config;
  group_config.replicas = 1;
  group_config.engine.threads =
      threads > 0 ? threads
                  : std::max<std::size_t>(
                        1, std::thread::hardware_concurrency());
  serve::EngineGroup group(group_config);
  group.register_bundle(bundle);
  std::printf("[3/5] fresh engine (generation %ju) loaded monitors:",
              static_cast<std::uintmax_t>(group.generation()));
  for (const auto& name : group.registered_monitors()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");

  // Sanity: the loaded CAWT reproduces the in-memory monitor exactly.
  {
    auto in_memory = core::cawt_factory(context.artifacts)(0);
    auto loaded = core::factory_from_bundle(bundle, "cawt")(0);
    const auto& run = replay.by_patient[0][0];
    const auto& profile = context.artifacts.profiles[0];
    bool identical = true;
    for (std::size_t k = 0; k < run.steps.size(); ++k) {
      const auto obs =
          core::observation_at(run, k, profile.basal_rate, profile.isf);
      const auto a = in_memory->observe(obs);
      const auto b = loaded->observe(obs);
      if (a.alarm != b.alarm || a.predicted != b.predicted ||
          a.rule_id != b.rule_id) {
        identical = false;
        break;
      }
    }
    std::printf("      loaded bundle reproduces in-memory decisions: %s\n",
                identical ? "yes" : "NO (bug!)");
  }

  // Replay mode: re-drive a recorded listfile instead of the cohort
  // stream. The replica must carry the same bundle the recording ran
  // against for the decision verification to come back clean.
  if (flags.has("replay")) {
    const std::string listfile = flags.get_string("replay", "");
    std::printf("[4/5] replaying session listfile %s...\n", listfile.c_str());
    const net::ReplayResult result =
        net::replay_listfile(listfile, group.replica(0));
    std::printf(
        "      %zu sessions (%zu closed), %ju ticks re-driven\n"
        "      %ju decisions compared, %ju mismatches, %ju unmatched -> %s\n",
        result.sessions_opened, result.sessions_closed,
        static_cast<std::uintmax_t>(result.ticks),
        static_cast<std::uintmax_t>(result.compared),
        static_cast<std::uintmax_t>(result.mismatches),
        static_cast<std::uintmax_t>(result.unmatched),
        result.mismatches == 0 ? "replay matches the recording"
                               : "REPLAY DIVERGED (bug!)");
    return result.mismatches == 0 ? 0 : 1;
  }

  // 4. Stream the recorded cohort through concurrent sessions.
  std::printf("[4/5] streaming cohort traces (%d scenarios/patient)...\n\n",
              scenarios);
  std::vector<std::string> monitors = {"guideline", "cawot", "cawt"};
  if (bundle.dt != nullptr) monitors.emplace_back("dt");
  if (bundle.mlp != nullptr) monitors.emplace_back("mlp");
  if (bundle.lstm != nullptr) monitors.emplace_back("lstm");

  TextTable table({"monitor", "sessions", "cycles", "alarms", "alarm rate"});
  for (const auto& name : monitors) {
    const ReplayStats stats =
        replay_cohort(group, name, replay, context, scenarios);
    table.add_row({name, std::to_string(stats.sessions),
                   std::to_string(stats.cycles),
                   std::to_string(stats.alarms),
                   stats.cycles == 0
                       ? "-"
                       : TextTable::pct(static_cast<double>(stats.alarms) /
                                        static_cast<double>(stats.cycles))});
  }
  table.print(std::cout);
  const serve::LatencySummary latency = group.latency();
  std::printf(
      "\n%zu sessions total, %ju cycles served, %zu threads\n"
      "per-tick latency p50/p95/p99: %.1f / %.1f / %.1f us  "
      "(%.0f cycles/s aggregate)\n",
      group.session_count(),
      static_cast<std::uintmax_t>(group.total_cycles()),
      group.replica(0).thread_count(), latency.p50_us, latency.p95_us,
      latency.p99_us, latency.cycles_per_sec());

  // 5. Hot reload: re-register the bundle file under the live sessions.
  // In-flight sessions keep their generation; new sessions pick up the
  // fresh one — and a corrupt file would throw IoError touching nothing.
  const auto before = group.generation();
  group.register_bundle_file(bundle_path);
  std::printf(
      "[5/5] hot-reloaded %s: generation %ju -> %ju, %zu live sessions "
      "untouched\n",
      bundle_path.c_str(), static_cast<std::uintmax_t>(before),
      static_cast<std::uintmax_t>(group.generation()),
      group.session_count());

  // Optional network front door: serve live TCP clients on the same
  // group (see examples/net_client.cpp for the matching client).
  if (flags.has("listen")) {
    net::ServerConfig server_config;
    server_config.port =
        static_cast<std::uint16_t>(flags.get_int("listen", 0));
    server_config.listfile = flags.get_string("record", "");
    net::IngestServer server(group, server_config);
    server.start();
    std::printf("\ningest server listening on 127.0.0.1:%u%s%s\n",
                server.port(),
                server_config.listfile.empty() ? "" : ", recording to ",
                server_config.listfile.c_str());
    const int listen_secs = flags.get_int("listen-secs", 0);
    if (listen_secs > 0) {
      std::this_thread::sleep_for(std::chrono::seconds(listen_secs));
    } else {
      std::printf("press enter (or close stdin) to stop\n");
      std::cin.get();
    }
    server.stop();
    const net::ServerStats net_stats = server.stats();
    std::printf(
        "served %ju connections, %ju observations in %ju batches "
        "(%ju bytes in, %ju bytes out)\n",
        static_cast<std::uintmax_t>(net_stats.accepted),
        static_cast<std::uintmax_t>(net_stats.ticks_fed),
        static_cast<std::uintmax_t>(net_stats.batches),
        static_cast<std::uintmax_t>(net_stats.bytes_in),
        static_cast<std::uintmax_t>(net_stats.bytes_out));
  }

  // Optional scrape: everything the group (and the training pipeline)
  // recorded, in the exposition a Prometheus agent — or a JSON consumer —
  // would pull from a real serving process.
  if (metrics) {
    std::printf("\n==== metrics scrape (%s) ====\n",
                metrics_json ? "json" : "prometheus text");
    const obs::RegistrySnapshot snapshot = group.registry().scrape();
    std::fputs(
        (metrics_json ? snapshot.json() : snapshot.prometheus()).c_str(),
        stdout);
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
