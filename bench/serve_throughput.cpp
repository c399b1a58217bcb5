// Serving-path throughput A/B: monitor cycles/sec per monitor kind through
// the sharded MonitorEngine (one batched model call per shard per tick)
// versus the scalar reference — one monitor::Monitor per session from the
// bundle's factory, stepped directly with observe() over a ThreadPool of
// the same size. Every monitor is built from a bundle that was saved to
// disk and loaded back — the serving deployment path, no retraining.
// Per-tick latency percentiles (p50/p95/p99) come from the engine's own
// instrumentation on the sharded arm and from per-tick timing on the
// scalar arm; everything is recorded into BENCH_serve_throughput.json
// (stage per monitor/arm/session-count cell), which the CI smoke step
// parses to fail on a sharded-vs-scalar throughput regression.
//
// Flags:
//   --sessions-max=<n>   largest session count (default 8192)
//   --budget-ms=<ms>     measurement window per cell (default 300)
//   --threads=<n>        worker threads per arm (default: hardware)
//   --ml                 bench DT/MLP/LSTM monitors too (default ON; tiny
//                        synthetic models) — --ml=0 for rule-based only
//   --dir=<path>         where the bundle file is written (default /tmp)
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/monitor_factory.h"
#include "io/artifact_io.h"
#include "ml/kernels/kernels.h"
#include "monitor/ml_monitor.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "sim/stack.h"

namespace {

using namespace aps;

ml::Dataset synth_dataset(std::size_t n, std::uint64_t seed) {
  ml::Dataset data;
  data.classes = 2;
  data.x = ml::Matrix(n, monitor::kMlFeatureCount);
  data.y.resize(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double bg = rng.uniform(40.0, 320.0);
    const double iob = rng.uniform(0.0, 10.0);
    data.x.at(i, 0) = bg;
    data.x.at(i, 1) = rng.uniform(-8.0, 8.0);
    data.x.at(i, 2) = iob;
    data.x.at(i, 3) = rng.uniform(-0.5, 0.5);
    data.x.at(i, 4) = rng.uniform(0.0, 3.0);
    data.x.at(i, 5) = static_cast<double>(rng.uniform_int(0, 3));
    data.y[i] = (bg < 80.0 && iob > 4.0) || bg > 260.0 ? 1 : 0;
  }
  return data;
}

ml::SequenceDataset synth_sequences(std::size_t n, std::uint64_t seed) {
  ml::SequenceDataset data;
  data.classes = 2;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    ml::Matrix window(monitor::kLstmWindow, monitor::kMlFeatureCount);
    double bg = 120.0;
    for (std::size_t t = 0; t < monitor::kLstmWindow; ++t) {
      bg = rng.uniform(40.0, 320.0);
      window.at(t, 0) = bg;
      window.at(t, 1) = rng.uniform(-8.0, 8.0);
      window.at(t, 2) = rng.uniform(0.0, 10.0);
      window.at(t, 3) = rng.uniform(-0.5, 0.5);
      window.at(t, 4) = rng.uniform(0.0, 3.0);
      window.at(t, 5) = static_cast<double>(rng.uniform_int(0, 3));
    }
    data.sequences.push_back(std::move(window));
    data.labels.push_back(bg > 260.0 || bg < 80.0 ? 1 : 0);
  }
  return data;
}

/// Artifact bundle from profile defaults — built once, persisted, and
/// loaded back so the bench exercises the deployment path.
core::ArtifactBundle build_bundle(bool with_ml) {
  core::ArtifactBundle bundle;
  const auto stack = sim::glucosym_openaps_stack();
  auto& artifacts = bundle.artifacts;
  artifacts.profiles = core::stack_profiles(stack);
  double mean_ss_iob = 0.0;
  for (const auto& profile : artifacts.profiles) {
    artifacts.patient_thresholds.push_back(
        monitor::default_thresholds(profile.steady_state_iob));
    artifacts.guideline_configs.push_back({});
    mean_ss_iob += profile.steady_state_iob;
  }
  mean_ss_iob /= static_cast<double>(artifacts.profiles.size());
  artifacts.population_thresholds = monitor::default_thresholds(mean_ss_iob);

  // Training-time feature statistics ride along in the bundle (optional
  // trailing section) so the engine's drift detectors run during the
  // bench — telemetry overhead is measured with drift scoring active.
  {
    const ml::Dataset stats_data = synth_dataset(4000, 9);
    bundle.training_stats = std::make_shared<const obs::TrainingStats>(
        obs::training_stats_from_samples(
            stats_data.x.cols(),
            std::span<const double>(stats_data.x.data(),
                                    stats_data.x.size())));
  }

  if (with_ml) {
    ml::DecisionTree dt;
    dt.fit(synth_dataset(2000, 1));
    bundle.dt = std::make_shared<const ml::DecisionTree>(std::move(dt));

    ml::MlpConfig mlp_config;
    mlp_config.hidden_units = {16, 8};
    mlp_config.max_epochs = 4;
    ml::Mlp mlp(mlp_config);
    mlp.fit(synth_dataset(1500, 2));
    bundle.mlp = std::make_shared<const ml::Mlp>(std::move(mlp));

    ml::LstmConfig lstm_config;
    lstm_config.hidden_units = {8};
    lstm_config.max_epochs = 2;
    ml::Lstm lstm(lstm_config);
    lstm.fit(synth_sequences(300, 3));
    bundle.lstm = std::make_shared<const ml::Lstm>(std::move(lstm));
  }
  return bundle;
}

/// A fresh engine with one monitor kind's sessions open, and the
/// whole-population batch that feeds them.
struct EngineCell {
  std::unique_ptr<serve::MonitorEngine> engine;
  std::vector<serve::SessionInput> batch;
};

/// One measured cell: warm up (fills LSTM windows, pages weights in), then
/// feed rotating whole-population batches until the budget elapses; the
/// engine's own per-tick instrumentation yields cycles/s and percentiles.
/// The measured loop drives the SoA feed overload with preallocated
/// decision storage — the production hot path (replica workers, the net
/// front door): no per-tick allocation, and steady-state batches take the
/// engine's already-grouped fast path.
serve::LatencySummary measure(EngineCell& cell,
                              const std::vector<monitor::Observation>& variants,
                              double budget_ms) {
  using clock = std::chrono::steady_clock;
  serve::MonitorEngine& engine = *cell.engine;
  const std::vector<serve::SessionInput>& batch = cell.batch;
  std::vector<serve::SessionId> sessions(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    sessions[i] = batch[i].session;
  }
  std::vector<monitor::Observation> obs_row(batch.size());
  std::vector<monitor::Decision> decisions(batch.size());
  for (std::size_t warm = 0; warm < monitor::kLstmWindow; ++warm) {
    (void)engine.feed(batch);
  }
  engine.reset_latency();
  std::size_t variant = 0;
  const auto start = clock::now();
  for (;;) {
    const auto& obs = variants[variant];
    variant = (variant + 1) % variants.size();
    for (auto& row : obs_row) row = obs;
    engine.feed(sessions, obs_row, decisions);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(clock::now() - start)
            .count();
    if (elapsed_ms >= budget_ms) break;
  }
  return engine.latency();
}

/// The scalar arm: one session's monitor per entry, each stepped with
/// observe() across `pool` every tick. Same warm-up, variant rotation and
/// budget as measure(); each tick is timed here for the percentiles.
serve::LatencySummary measure_scalar(
    ThreadPool& pool, std::vector<std::unique_ptr<monitor::Monitor>>& sessions,
    const std::vector<monitor::Observation>& variants, double budget_ms) {
  using clock = std::chrono::steady_clock;
  std::vector<monitor::Decision> decisions(sessions.size());
  const auto tick = [&](const monitor::Observation& obs) {
    pool.parallel_for(sessions.size(), [&](std::size_t i) {
      decisions[i] = sessions[i]->observe(obs);
    });
  };
  for (std::size_t warm = 0; warm < monitor::kLstmWindow; ++warm) {
    tick(variants[0]);
  }
  std::vector<double> tick_us;
  std::size_t variant = 0;
  const auto start = clock::now();
  for (;;) {
    const auto t0 = clock::now();
    tick(variants[variant]);
    const auto t1 = clock::now();
    tick_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    variant = (variant + 1) % variants.size();
    if (std::chrono::duration<double, std::milli>(t1 - start).count() >=
        budget_ms) {
      break;
    }
  }
  serve::LatencySummary summary;
  summary.ticks = tick_us.size();
  summary.cycles = summary.ticks * sessions.size();
  for (const double us : tick_us) summary.seconds += us * 1e-6;
  summary.p50_us = percentile(tick_us, 50.0);
  summary.p95_us = percentile(tick_us, 95.0);
  summary.p99_us = percentile(tick_us, 99.0);
  summary.max_us = *std::max_element(tick_us.begin(), tick_us.end());
  return summary;
}

/// Interleaved best-of A/B: `rounds` rounds, each measuring arm `a` and arm
/// `b` for budget_ms / rounds, alternating which arm goes first so a
/// periodic external load cannot land on the same arm's window every
/// round. best[0] / best[1] keep each arm's best window, accumulating
/// across calls. Interruption noise on a shared host is one-sided (a
/// preempted window only reads slower, never faster), so the best window
/// converges to the uncontended rate where single windows swing several
/// percent.
template <typename ArmA, typename ArmB>
void best_of_rounds(ArmA&& a, ArmB&& b, double budget_ms, int rounds,
                    std::array<serve::LatencySummary, 2>& best) {
  for (int round = 0; round < rounds; ++round) {
    for (const int arm : {round % 2, 1 - round % 2}) {
      const serve::LatencySummary m =
          arm == 0 ? a(budget_ms / rounds) : b(budget_ms / rounds);
      if (m.cycles_per_sec() > best[arm].cycles_per_sec()) best[arm] = m;
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  CliFlags flags(argc, argv);
  const int sessions_max = flags.get_int("sessions-max", 8192);
  const double budget_ms = flags.get_double("budget-ms", 300.0);
  const auto threads =
      static_cast<std::size_t>(flags.get_int("threads", 0));
  const bool with_ml = flags.get_bool("ml", true);
  const std::string dir = flags.get_string(
      "dir", (std::filesystem::temp_directory_path() / "aps_serve_bench")
                 .string());

  bench::BenchRecorder recorder("serve_throughput");
  // Engines default to the process-global registry, so each stage's JSON
  // carries the serve_*/drift_* counter deltas that accrued during it.
  recorder.attach_registry(&obs::Registry::global());
  std::filesystem::create_directories(dir);
  const std::string bundle_path = dir + "/bundle.aps";
  recorder.time_stage("build+save+load bundle", 0, [&] {
    io::save_bundle(build_bundle(with_ml), bundle_path);
  });
  const core::ArtifactBundle bundle = io::load_bundle(bundle_path);
  const int cohort = static_cast<int>(bundle.artifacts.profiles.size());

  std::printf("== serve_throughput ==\n");
  std::printf("bundle: %s (%ju bytes), cohort %d, %s models\n",
              bundle_path.c_str(),
              static_cast<std::uintmax_t>(
                  std::filesystem::file_size(bundle_path)),
              cohort, with_ml ? "rule+ML" : "rule-based");
  std::printf("kernels backend: %s\n", ml::kernels::backend_name());

  std::vector<std::string> monitors = {"cawt", "cawot", "guideline"};
  std::vector<std::string> ml_monitors;
  if (with_ml) {
    ml_monitors = {"dt", "mlp", "lstm"};
    monitors.insert(monitors.end(), ml_monitors.begin(), ml_monitors.end());
  }
  std::vector<int> session_counts;
  for (const int n : {1, 64, 1024, 8192}) {
    if (n <= sessions_max) session_counts.push_back(n);
  }
  const int top_sessions = session_counts.back();

  // A handful of observation variants covering quiet and alarming contexts.
  std::vector<monitor::Observation> variants;
  Rng rng(7);
  for (int i = 0; i < 16; ++i) {
    monitor::Observation obs;
    obs.time_min = 5.0 * i;
    obs.bg = rng.uniform(50.0, 300.0);
    obs.bg_rate = rng.uniform(-6.0, 6.0);
    obs.iob = rng.uniform(0.0, 8.0);
    obs.iob_rate = rng.uniform(-0.4, 0.4);
    obs.commanded_rate = rng.uniform(0.0, 3.0);
    obs.previous_rate = rng.uniform(0.0, 3.0);
    obs.action = static_cast<ControlAction>(rng.uniform_int(0, 3));
    obs.basal_rate = 1.0;
    obs.isf = 40.0;
    variants.push_back(obs);
  }

  TextTable table({"monitor", "backend", "sessions", "cycles", "cycles/sec",
                   "p50us", "p95us", "p99us", "maxus"});
  // cycles/s per (monitor, arm, sessions) for the A/B verdict and the CI
  // regression smoke.
  std::map<std::string, std::map<std::string, std::map<int, double>>> rate;
  const auto record_cell = [&](const std::string& kind, const std::string& arm,
                               int n, double rss_before_mb,
                               const serve::LatencySummary& m) {
    table.add_row({kind, arm, std::to_string(n), std::to_string(m.cycles),
                   TextTable::num(m.cycles_per_sec(), 0),
                   TextTable::num(m.p50_us, 1), TextTable::num(m.p95_us, 1),
                   TextTable::num(m.p99_us, 1), TextTable::num(m.max_us, 1)});
    recorder.stage_done(kind + "/" + arm + "/" + std::to_string(n), m.seconds,
                        m.cycles, rss_before_mb,
                        {{"sessions", static_cast<double>(n)},
                         {"p50_us", m.p50_us},
                         {"p95_us", m.p95_us},
                         {"p99_us", m.p99_us},
                         {"max_us", m.max_us}});
    rate[kind][arm][n] = m.cycles_per_sec();
  };
  const auto open_engine = [&](const serve::EngineConfig& config,
                               const std::string& kind,
                               const std::string& prefix, int n) {
    EngineCell cell{std::make_unique<serve::MonitorEngine>(config), {}};
    cell.engine->register_bundle(bundle);
    cell.batch.reserve(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      const auto id = cell.engine->open_session(
          prefix + "/patient-" + std::to_string(s), kind, s % cohort);
      cell.batch.push_back({id, variants[0]});
    }
    return cell;
  };
  const auto measure_engine = [&](const serve::EngineConfig& config,
                                  const std::string& kind,
                                  const std::string& prefix, int n) {
    EngineCell cell = open_engine(config, kind, prefix, n);
    return measure(cell, variants, budget_ms);
  };

  // The two arms of each (kind, sessions) cell live side by side and run
  // in interleaved best-of rounds, so host noise cannot decide the
  // sharded/scalar ratio by landing on one arm's only window.
  constexpr int kArmRounds = 4;
  ThreadPool scalar_pool(threads);
  for (const auto& name : monitors) {
    const sim::MonitorFactory factory = core::factory_from_bundle(bundle, name);
    for (const int n : session_counts) {
      const double rss_before_mb = bench::peak_rss_mb();
      std::vector<std::unique_ptr<monitor::Monitor>> sessions;
      sessions.reserve(static_cast<std::size_t>(n));
      for (int s = 0; s < n; ++s) sessions.push_back(factory(s % cohort));
      EngineCell sharded = open_engine({.threads = threads}, name, name, n);
      std::array<serve::LatencySummary, 2> best{};
      best_of_rounds(
          [&](double ms) {
            return measure_scalar(scalar_pool, sessions, variants, ms);
          },
          [&](double ms) { return measure(sharded, variants, ms); },
          budget_ms, kArmRounds, best);
      record_cell(name, "scalar", n, rss_before_mb, best[0]);
      record_cell(name, "sharded", n, rss_before_mb, best[1]);
    }
  }
  // Float32 serving lanes (precision = kF32 on the sharded backend) for
  // the two monitors with a float32 kernel path. Stage names keep the
  // 3-part "<kind>/<backend>/<sessions>" shape with a "-f32" kind suffix
  // so the CI JSON gate parses them alongside the f64 cells.
  std::vector<std::string> f32_monitors;
  if (with_ml) f32_monitors = {"mlp", "lstm"};
  for (const auto& name : f32_monitors) {
    for (const int n : session_counts) {
      const double rss_before_mb = bench::peak_rss_mb();
      record_cell(name + "-f32", "sharded", n, rss_before_mb,
                  measure_engine({.threads = threads,
                                  .precision = monitor::Precision::kF32},
                                 name, name + "-f32", n));
    }
  }
  table.print(std::cout);

  // Telemetry overhead A/B: the full sharded tick at the top session count
  // with telemetry on (histograms + spans + drift scoring) versus off
  // (mandatory counters into a private registry only). Cheapest rule-based
  // monitor = worst-case telemetry fraction of the tick. Informational —
  // recorded in the JSON for the EXPERIMENTS.md trail, target < 2%.
  {
    const std::string kind = "guideline";
    const double rss_before_mb = bench::peak_rss_mb();
    // Both engines live side by side and are measured in interleaved
    // best-of rounds: a single window per arm is at the mercy of
    // scheduler/turbo jitter on shared runners (observed swings of +-7%,
    // larger than the 2% budget the gate enforces).
    EngineCell on = open_engine({.threads = threads, .telemetry = true}, kind,
                                "ab0", top_sessions);
    EngineCell off = open_engine({.threads = threads, .telemetry = false},
                                 kind, "ab1", top_sessions);
    std::array<serve::LatencySummary, 2> best{};
    const auto run_rounds = [&]() {
      best_of_rounds([&](double ms) { return measure(on, variants, ms); },
                     [&](double ms) { return measure(off, variants, ms); },
                     budget_ms, 8, best);
      const double cps_off = best[1].cycles_per_sec();
      return cps_off > 0.0 ? 100.0 * (1.0 - best[0].cycles_per_sec() / cps_off)
                           : 0.0;
    };
    double overhead_pct = run_rounds();
    // Adaptive retry: best-of accumulates monotonically, so extra rounds
    // can only help an arm that never got a quiet window — they cannot
    // mask a genuine regression, which stays slow in every window. This
    // keeps a hard 2% CI gate from flaking on contention bursts that
    // outlast one batch of rounds.
    for (int retry = 0; retry < 2 && overhead_pct > 2.0; ++retry) {
      overhead_pct = run_rounds();
    }
    std::printf(
        "\ntelemetry overhead (%s, %d sessions, sharded): on %.0f vs off "
        "%.0f cycles/s -> %.2f%%\n",
        kind.c_str(), top_sessions, best[0].cycles_per_sec(),
        best[1].cycles_per_sec(), overhead_pct);
    recorder.stage_done("telemetry_overhead/" + kind + "/" +
                            std::to_string(top_sessions),
                        best[0].seconds, best[0].cycles, rss_before_mb,
                        {{"cycles_per_sec_on", best[0].cycles_per_sec()},
                         {"cycles_per_sec_off", best[1].cycles_per_sec()},
                         {"overhead_pct", overhead_pct}});
  }

  // Kernel-layer A/B (the kernel refactor's headline gate): the LSTM
  // serving tick at 64 sessions, float64 on the forced-scalar kernels
  // (bit-identical to the pre-kernel code, so this IS the "before" cell)
  // versus float32 sharded lanes on the dispatch backend. Back-to-back in
  // one process so the comparison shares cache/turbo state.
  double kernels_speedup = 0.0;
  const bool kernels_simd =
      ml::kernels::active_backend() != ml::kernels::Backend::kScalar;
  if (with_ml && sessions_max >= 64) {
    const int n_ab = 64;
    const auto run_cell = [&](monitor::Precision precision,
                              const char* tag) {
      return measure_engine({.threads = threads, .precision = precision},
                            "lstm", std::string("kab-") + tag, n_ab);
    };
    const double rss_before_mb = bench::peak_rss_mb();
    const auto dispatch = ml::kernels::active_backend();
    ml::kernels::set_backend(ml::kernels::Backend::kScalar);
    const serve::LatencySummary before =
        run_cell(monitor::Precision::kF64, "f64");
    ml::kernels::set_backend(dispatch);
    const serve::LatencySummary after =
        run_cell(monitor::Precision::kF32, "f32");
    kernels_speedup = before.cycles_per_sec() > 0.0
                          ? after.cycles_per_sec() / before.cycles_per_sec()
                          : 0.0;
    std::printf(
        "\nkernels A/B (lstm, %d sessions, sharded): f64/scalar-kernels "
        "%.0f vs f32/%s %.0f cycles/s -> %.2fx\n",
        n_ab, before.cycles_per_sec(), ml::kernels::backend_name(),
        after.cycles_per_sec(), kernels_speedup);
    recorder.stage_done("kernels_ab/lstm/" + std::to_string(n_ab),
                        after.seconds, after.cycles, rss_before_mb,
                        {{"cycles_per_sec_f64_scalar_kernels",
                          before.cycles_per_sec()},
                         {"cycles_per_sec_f32_simd", after.cycles_per_sec()},
                         {"speedup", kernels_speedup},
                         {"simd", kernels_simd ? 1.0 : 0.0}});
  }

  // A/B verdict. Per monitor kind: the sharded/scalar cycles/s ratio at
  // every session count; a kind's headline speedup is its best ratio (the
  // batching win peaks where model-call overhead dominates the tick). The
  // sharded path must not regress below the scalar path on any ML monitor
  // at the top session count, and at least one ML monitor must show the
  // >= 2x batching win the refactor exists for.
  std::printf("\nsharded vs scalar cycles/s ratio per session count:\n");
  bool ok = true;
  double best_ml_ratio = 0.0;
  for (const auto& name : monitors) {
    const bool is_ml = std::find(ml_monitors.begin(), ml_monitors.end(),
                                 name) != ml_monitors.end();
    std::printf("  %-10s", name.c_str());
    double best = 0.0;
    for (const int n : session_counts) {
      const double scalar = rate[name]["scalar"][n];
      const double sharded = rate[name]["sharded"][n];
      const double ratio = scalar > 0.0 ? sharded / scalar : 0.0;
      best = std::max(best, ratio);
      std::printf("  %5d: %.2fx", n, ratio);
      if (is_ml && n == top_sessions && ratio < 0.9) {
        ok = false;  // regression guard (10% jitter allowance)
      }
    }
    std::printf("  best %.2fx%s\n", best, is_ml ? "" : "  [rule-based]");
    if (is_ml) best_ml_ratio = std::max(best_ml_ratio, best);
  }
  if (with_ml && best_ml_ratio < 2.0) ok = false;
  if (with_ml) {
    std::printf(
        "best ML speedup: %.2fx (need >= 2x, no ML kind < 0.9x at %d "
        "sessions): %s\n",
        best_ml_ratio, top_sessions, ok ? "PASS" : "FAIL");
  }

  // Float32 verdict: per kind the f32/f64 sharded ratio (informational —
  // the equivalence suite owns correctness), plus the hard >= 4x kernel
  // gate on a SIMD dispatch backend (a scalar-only host still reports the
  // speedup but can't be held to the vector-width target).
  if (with_ml) {
    std::printf("\nfloat32 vs float64 sharded cycles/s ratio:\n");
    for (const auto& name : f32_monitors) {
      std::printf("  %-10s", (name + "-f32").c_str());
      for (const int n : session_counts) {
        const double f64_rate = rate[name]["sharded"][n];
        const double f32_rate = rate[name + "-f32"]["sharded"][n];
        std::printf("  %5d: %.2fx", n,
                    f64_rate > 0.0 ? f32_rate / f64_rate : 0.0);
      }
      std::printf("\n");
    }
    if (sessions_max >= 64) {
      const bool kernels_ok = !kernels_simd || kernels_speedup >= 4.0;
      std::printf(
          "kernels gate: lstm f32-sharded vs pre-kernel f64 %.2fx "
          "(need >= 4x on SIMD backends, backend=%s): %s\n",
          kernels_speedup, ml::kernels::backend_name(),
          kernels_ok ? "PASS" : "FAIL");
      if (!kernels_ok) ok = false;
    }
  }
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
