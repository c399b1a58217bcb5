// Serving benchmark: CPU per session-cycle and control-cycle latency of the
// monitor serving path, on three workloads that stress different layers.
//
//   wire-rule    256 rule sessions (guideline/cawot/cawt) on one gateway
//                connection into net::IngestServer over a one-replica
//                EngineGroup with one engine thread, listfile recording on.
//                Closed loop: each cycle's ticks go out in one write; a
//                session whose trace ends is closed and a new one opened in
//                that same write. Frame decode, per-frame encode + send and
//                listfile writes dominate; the engine barely registers.
//   direct-ml    64 sessions each of lstm/mlp/dt with paper-sized f64
//                models, fed in-process through EngineGroup::feed (one
//                replica, engine pool of nproc threads). Model prediction
//                and the kernels dominate; a 64-lane shard is one chunk.
//   direct-rule  1,024 rule sessions, same topology as direct-ml. Per-lane
//                work is tiny, so group partition/merge and pool fan-out
//                dominate.
//
// Inputs are fault-injected closed-loop runs of fi::CampaignGrid::quick()
// on the glucosym + OpenAPS stack, chosen by --seed and rebuilt into
// observation streams with sim::observation_from_record. The bundle holds
// the thresholds learned by the offline pipeline and, for direct-ml,
// models trained briefly; it goes through io::save_bundle/load_bundle.
// Everything is built before the measured window; setup runs several times
// and reports its median.
//
// Outputs are checked outside the window: every decision of a seeded set
// of sessions against a scalar monitor::Monitor stepped over the same
// stream, the wire listfile replayed into a fresh group, and every count
// of ticks, decisions, opens, closes, rejects, drops, protocol errors and
// degraded ticks. With --trace 1 the run also reports per-layer figures
// (per-thread CPU, engine phase histograms, timed calls into each layer's
// public functions); end-to-end figures come from the untraced run.
//
// Usage: servebench --workload <wire-rule|direct-ml|direct-rule>
//                   --seed <n> --seconds <s> --trace <0|1> [--tmpdir <dir>]
// The last line of standard output is one JSON object.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/monitor_factory.h"
#include "fi/campaign.h"
#include "io/artifact_io.h"
#include "ml/dataset.h"
#include "monitor/ml_monitor.h"
#include "net/listfile.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "serve/group.h"
#include "sim/closed_loop.h"
#include "sim/runner.h"
#include "sim/stack.h"
#include "threads.h"

namespace {

using namespace aps;
using Clock = std::chrono::steady_clock;

/// Results of timed probe calls land here so the calls are not optimized
/// away.
volatile double g_sink = 0.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Seeded stream independent of the standard library's distributions, so
/// one seed names the same inputs on every toolchain.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

// ---- Workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t sessions = 0;
  /// Monitor per contiguous block of sessions (block b = sessions
  /// [b*n/k, (b+1)*n/k)), so a steady-state tick is shard-contiguous.
  std::vector<std::string> monitors;
  bool wire = false;
  bool ml = false;
};

Workload workload_by_name(const std::string& name) {
  if (name == "wire-rule") {
    return {name, 256, {"guideline", "cawot", "cawt"}, true, false};
  }
  if (name == "direct-ml") return {name, 192, {"lstm", "mlp", "dt"}, false, true};
  if (name == "direct-rule") {
    return {name, 1024, {"guideline", "cawot", "cawt"}, false, false};
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (wire-rule, direct-ml, direct-rule)");
}

/// Engine pool threads for the direct workloads: nproc, capped at 4 so no
/// workload keeps more than four threads busy on a larger host.
std::size_t pool_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

// Paper-sized models (Zhou et al. §V-C4), trained for one epoch at setup:
// training quality is irrelevant to serving cost, layer sizes are not.
const std::vector<std::size_t> kLstmHidden = {128, 64};
const std::vector<std::size_t> kMlpHidden = {256, 128};
constexpr int kDtDepth = 12;

constexpr std::size_t kTracesPerPatient = 8;
constexpr std::size_t kCheckedPerMonitor = 4;
constexpr int kSetupRepeats = 7;
constexpr double kWarmupSeconds = 0.5;
constexpr double kSliceSeconds = 0.5;
/// Decisions of the checked slots are compared over this many first cycles.
constexpr std::uint64_t kCheckedCycles = 256;

// ---- Inputs -----------------------------------------------------------------

struct Trace {
  int patient = 0;
  std::vector<monitor::Observation> obs;
};

/// The workload's input streams. Slot s (one live session at a time) runs
/// patient slot_patient[s]'s traces back to back in the seeded order
/// slot_traces[s], starting slot_offset[s] steps into the first, so trace
/// ends (session churn on the wire) spread over cycles.
struct Inputs {
  std::vector<Trace> traces;
  std::size_t trace_len = 0;
  std::vector<int> slot_patient;
  std::vector<std::vector<std::uint32_t>> slot_traces;
  std::vector<std::size_t> slot_offset;
  std::vector<std::size_t> checked;  ///< slots compared with the reference
  ml::Dataset tabular;               ///< direct-ml training data
  ml::SequenceDataset sequences;

  [[nodiscard]] std::size_t pos(std::size_t slot, std::uint64_t cycle) const {
    return slot_offset[slot] + static_cast<std::size_t>(cycle);
  }
  [[nodiscard]] const monitor::Observation& obs(std::size_t slot,
                                                std::uint64_t cycle) const {
    const std::size_t p = pos(slot, cycle);
    const auto& order = slot_traces[slot];
    return traces[order[(p / trace_len) % order.size()]].obs[p % trace_len];
  }
  /// Segment (trace) index of a slot at a cycle; a new wire session starts
  /// whenever it changes.
  [[nodiscard]] std::size_t segment(std::size_t slot,
                                    std::uint64_t cycle) const {
    return pos(slot, cycle) / trace_len;
  }
};

const std::string& monitor_of(const Workload& w, std::size_t slot) {
  return w.monitors[slot * w.monitors.size() / w.sessions];
}

Inputs make_inputs(const Workload& w, std::uint64_t seed,
                   const sim::Stack& stack, ThreadPool& pool) {
  SplitMix rng(seed);
  const auto scenarios = fi::enumerate_scenarios(fi::CampaignGrid::quick());
  const auto cohort = static_cast<std::size_t>(stack.cohort_size);

  // Seeded choice of kTracesPerPatient distinct scenarios per patient.
  std::vector<std::pair<int, std::size_t>> runs;  // (patient, scenario)
  for (std::size_t p = 0; p < cohort; ++p) {
    std::vector<std::size_t> pick(scenarios.size());
    for (std::size_t i = 0; i < pick.size(); ++i) pick[i] = i;
    for (std::size_t i = 0; i < kTracesPerPatient; ++i) {
      std::swap(pick[i], pick[i + rng.below(pick.size() - i)]);
      runs.emplace_back(static_cast<int>(p), pick[i]);
    }
  }
  std::vector<sim::SimResult> results(runs.size());
  sim::for_each_run(
      stack, runs.size(),
      [&](std::size_t i) {
        sim::RunRequest req;
        req.patient_index = runs[i].first;
        req.config.initial_bg = scenarios[runs[i].second].initial_bg;
        req.config.fault = scenarios[runs[i].second].fault;
        return req;
      },
      sim::null_monitor_factory(),
      [&](std::size_t, std::size_t i, const sim::SimResult& run) {
        results[i] = run;
      },
      &pool);

  Inputs in;
  const auto profiles = core::stack_profiles(stack);
  in.trace_len = results.front().steps.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::SimResult& run = results[i];
    if (run.steps.size() != in.trace_len) {
      throw std::runtime_error("campaign traces differ in length");
    }
    Trace trace;
    trace.patient = runs[i].first;
    const auto& profile = profiles[static_cast<std::size_t>(trace.patient)];
    for (std::size_t k = 0; k < run.steps.size(); ++k) {
      trace.obs.push_back(sim::observation_from_record(
          run, k, profile.basal_rate, profile.isf));
    }
    in.traces.push_back(std::move(trace));
  }

  for (std::size_t s = 0; s < w.sessions; ++s) {
    const std::size_t p = rng.below(cohort);
    in.slot_patient.push_back(static_cast<int>(p));
    std::vector<std::uint32_t> order(kTracesPerPatient);
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::uint32_t>(p * kTracesPerPatient + i);
    }
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    in.slot_traces.push_back(std::move(order));
    in.slot_offset.push_back(rng.below(in.trace_len));
  }
  const std::size_t block = w.sessions / w.monitors.size();
  for (std::size_t b = 0; b < w.monitors.size(); ++b) {
    std::set<std::size_t> chosen;
    while (chosen.size() < kCheckedPerMonitor) {
      chosen.insert(b * block + rng.below(block));
    }
    in.checked.insert(in.checked.end(), chosen.begin(), chosen.end());
  }

  if (w.ml) {
    std::vector<const sim::SimResult*> ptrs;
    std::vector<int> run_patient;
    for (std::size_t i = 0; i < results.size(); ++i) {
      ptrs.push_back(&results[i]);
      run_patient.push_back(runs[i].first);
    }
    in.tabular = core::build_tabular_dataset(
        ptrs, profiles, run_patient,
        {.classes = 2, .stride = 3, .max_samples = 4000});
    in.sequences = core::build_sequence_dataset(
        ptrs, profiles, run_patient,
        {.classes = 2, .stride = 5, .max_samples = 800});
  }
  return in;
}

/// Offline design pipeline: quick-grid campaign, STL threshold learning and
/// guideline percentiles; for ML workloads also one epoch of each model.
core::ArtifactBundle make_bundle(const Workload& w, const Inputs& in,
                                 std::uint64_t seed, const sim::Stack& stack,
                                 ThreadPool& pool) {
  core::ExperimentConfig config;
  config.train_ml = false;
  config.seed = seed;
  const core::ExperimentContext context =
      core::prepare_experiment(stack, config, pool);
  core::ArtifactBundle bundle = core::bundle_from_context(context);
  if (!w.ml) return bundle;

  ml::DecisionTreeConfig dt_config;
  dt_config.max_depth = kDtDepth;
  auto dt = std::make_shared<ml::DecisionTree>(dt_config);
  dt->fit(in.tabular);
  ml::MlpConfig mlp_config;
  mlp_config.hidden_units = kMlpHidden;
  mlp_config.max_epochs = 1;
  mlp_config.seed = seed;
  auto mlp = std::make_shared<ml::Mlp>(mlp_config);
  (void)mlp->fit(in.tabular, &pool);
  ml::LstmConfig lstm_config;
  lstm_config.hidden_units = kLstmHidden;
  lstm_config.max_epochs = 1;
  lstm_config.seed = seed;
  auto lstm = std::make_shared<ml::Lstm>(lstm_config);
  (void)lstm->fit(in.sequences, &pool);
  bundle.dt = std::move(dt);
  bundle.mlp = std::move(mlp);
  bundle.lstm = std::move(lstm);
  bundle.ml_classes = 2;
  bundle.lstm_classes = 2;
  bundle.training_stats = std::make_shared<const obs::TrainingStats>(
      obs::training_stats_from_samples(
          in.tabular.x.cols(),
          std::span<const double>(in.tabular.x.data(), in.tabular.x.size())));
  return bundle;
}

// ---- Serving stack ----------------------------------------------------------

/// Temp directory for the bundle and the listfile, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::filesystem::path& parent) {
    std::filesystem::create_directories(parent);
    std::string tmpl = (parent / "servebench-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + parent.string());
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// The gateway end of the wire workload: one TCP connection that writes a
/// whole cycle at once and polls for the replies instead of sleeping in
/// recv(). A remote gateway is never woken by the server's sends; a
/// sleeping loopback client is, and those wake-ups would be charged to the
/// server's send path at a rate that depends on thread placement.
class WireClient {
 public:
  explicit WireClient(std::uint16_t port) : decoder_("server") {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      throw std::runtime_error("connect to the ingest server failed");
    }
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    send(net::encode_frame(net::encode(net::HelloMsg{.client_name = "servebench"})));
    if (next().kind != net::FrameKind::kHelloAck) {
      ::close(fd_);
      throw std::runtime_error("no hello ack from the ingest server");
    }
  }
  ~WireClient() { ::close(fd_); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  void send(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) throw std::runtime_error("send to the ingest server failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Next complete frame; polls the socket until one has arrived.
  net::Frame next() {
    for (;;) {
      if (std::optional<net::Frame> frame = decoder_.next()) return *std::move(frame);
      const ssize_t n = ::recv(fd_, buf_.data(), buf_.size(), MSG_DONTWAIT);
      if (n > 0) {
        decoder_.feed({buf_.data(), static_cast<std::size_t>(n)});
      } else if (n == 0) {
        throw std::runtime_error("the ingest server closed the connection");
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        throw std::runtime_error("recv from the ingest server failed");
      }
    }
  }

 private:
  int fd_ = -1;
  net::FrameDecoder decoder_;
  std::array<std::uint8_t, 64 * 1024> buf_{};
};

/// Per-slot wire state: the live session's token and how many ticks it got.
struct WireSlot {
  std::uint64_t token = 0;
  std::uint64_t ticks = 0;
};

std::uint64_t wire_token(std::size_t slot, std::size_t segment) {
  return (static_cast<std::uint64_t>(slot) << 32) | segment;
}

std::string wire_patient_id(std::size_t slot, std::size_t segment) {
  return "wire/" + std::to_string(slot) + "/" + std::to_string(segment);
}

/// Everything that serves. Members are destroyed in reverse order: the
/// client disconnects before the server stops, the server stops before the
/// group shuts down, and the temp directory goes last.
struct Serving {
  std::unique_ptr<TempDir> tmp;
  std::string listfile;
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<serve::EngineGroup> group;
  std::vector<int> group_threads;  ///< replica worker + engine pool
  std::unique_ptr<net::IngestServer> server;
  std::vector<int> io_threads;
  std::unique_ptr<WireClient> client;
  std::vector<serve::SessionId> ids;  ///< direct: session per slot
  std::vector<WireSlot> wire;         ///< wire: live token per slot
};

struct Setup {
  Inputs inputs;
  core::ArtifactBundle bundle;
  std::unique_ptr<Serving> serving;
  double inputs_s = 0.0;
  double bundle_load_ms = 0.0;
};

Setup make_setup(const Workload& w, std::uint64_t seed, bool trace,
                 const std::filesystem::path& tmp_parent) {
  Setup setup;
  const sim::Stack stack = sim::glucosym_openaps_stack();
  {
    ThreadPool pool(pool_threads());
    const auto t0 = Clock::now();
    setup.inputs = make_inputs(w, seed, stack, pool);
    setup.inputs_s = seconds_since(t0);
    const core::ArtifactBundle built =
        make_bundle(w, setup.inputs, seed, stack, pool);
    auto serving = std::make_unique<Serving>();
    serving->tmp = std::make_unique<TempDir>(tmp_parent);
    const std::string bundle_path = (serving->tmp->path() / "bundle.aps").string();
    io::save_bundle(built, bundle_path);
    const auto t1 = Clock::now();
    setup.bundle = io::load_bundle(bundle_path);
    setup.bundle_load_ms = seconds_since(t1) * 1e3;
    setup.serving = std::move(serving);
  }
  Serving& s = *setup.serving;

  serve::GroupConfig config;
  config.replicas = 1;
  config.engine.threads = w.wire ? 1 : pool_threads();
  s.registry = std::make_unique<obs::Registry>();
  config.engine.registry = s.registry.get();
  // Traced runs sample the engine's detailed telemetry (phase spans and
  // clocks, drift) on every tick instead of every 256th.
  if (trace) config.engine.drift.sample_every_ticks = 1;
  const std::set<int> before_group = servebench::list_tasks();
  s.group = std::make_unique<serve::EngineGroup>(config);
  s.group_threads = servebench::new_tasks(before_group, servebench::list_tasks());
  s.group->register_bundle(setup.bundle);

  const Inputs& in = setup.inputs;
  if (!w.wire) {
    for (std::size_t slot = 0; slot < w.sessions; ++slot) {
      s.ids.push_back(s.group->open_session("direct/" + std::to_string(slot),
                                            monitor_of(w, slot),
                                            in.slot_patient[slot]));
    }
    return setup;
  }

  net::ServerConfig server_config;
  // A cycle is at most one tick and one close per session: size the
  // per-connection queue above that, so a cycle lands as one feed.
  server_config.max_queued_events = 2 * w.sessions + 16;
  s.listfile = (s.tmp->path() / "wire.listfile").string();
  server_config.listfile = s.listfile;
  s.server = std::make_unique<net::IngestServer>(*s.group, server_config);
  const std::set<int> before_server = servebench::list_tasks();
  s.server->start();
  s.io_threads = servebench::new_tasks(before_server, servebench::list_tasks());
  s.client = std::make_unique<WireClient>(s.server->port());
  s.wire.resize(w.sessions);
  for (std::size_t slot = 0; slot < w.sessions; ++slot) {
    const std::size_t segment = in.segment(slot, 0);
    s.wire[slot].token = wire_token(slot, segment);
    s.client->send(net::encode_frame(net::encode(net::OpenSessionMsg{
        .token = s.wire[slot].token,
        .patient_id = wire_patient_id(slot, segment),
        .monitor = monitor_of(w, slot),
        .patient_index = in.slot_patient[slot]})));
    const net::Frame reply = s.client->next();
    if (reply.kind != net::FrameKind::kOpenAck || !net::decode_open_ack(reply).ok) {
      throw std::runtime_error("session open refused at setup");
    }
  }
  return setup;
}

// ---- Statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// 10th percentile by linear interpolation between order statistics.
double lower_decile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double k = 0.1 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(k);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (k - static_cast<double>(lo));
}

/// Whole-window cycle times in fixed memory (0.5% log buckets from 1 us),
/// so the benchmark's own footprint does not grow with the cycles served
/// and peak_rss_mb measures the serving stack.
class CycleHistogram {
 public:
  void add(double us) {
    const double x = std::max(us, 1.0);
    const auto b = static_cast<std::size_t>(std::log(x) / std::log(kGrowth));
    ++counts_[std::min(b, counts_.size() - 1)];
    ++total_;
  }
  [[nodiscard]] std::size_t count() const { return total_; }
  /// Value at percentile p (geometric middle of the owning bucket).
  [[nodiscard]] double percentile(double p) const {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(total_)));
    std::size_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen >= std::max<std::size_t>(rank, 1)) {
        return std::pow(kGrowth, static_cast<double>(b) + 0.5);
      }
    }
    return 0.0;
  }

 private:
  static constexpr double kGrowth = 1.005;
  std::array<std::uint64_t, 3300> counts_{};  ///< up to ~14 s
  std::size_t total_ = 0;
};

/// The highest of a few percentiles with at least ten samples beyond it
/// (none below forty samples, where a tail is not a tail).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

Tail tail_of(const CycleHistogram& h) {
  Tail tail;
  tail.samples = h.count();
  if (h.count() < 40) return tail;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(h.count()) * (1.0 - p / 100.0) >= 10.0) {
      tail.percentile = p;
      tail.value = h.percentile(p);
      return tail;
    }
  }
  return tail;
}

/// Host CPU time stolen by the hypervisor, from the aggregate /proc/stat
/// line: (steal, total) jiffies.
std::pair<double, double> host_steal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(stat >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

bool same_decision(const monitor::Decision& a, const monitor::Decision& b) {
  return a.alarm == b.alarm && a.predicted == b.predicted &&
         a.rule_id == b.rule_id;
}

// ---- Measured run -----------------------------------------------------------

struct Counts {
  std::uint64_t ticks = 0;       ///< ticks sent / fed
  std::uint64_t decisions = 0;   ///< decisions received / returned
  std::uint64_t opens = 0;
  std::uint64_t opens_acked = 0;
  std::uint64_t closes = 0;
  std::uint64_t closes_acked = 0;
  std::uint64_t rejects = 0;
  std::uint64_t bad_replies = 0;  ///< wrong token/seq/cycle count in a reply
};

/// One of the window's equal-time parts (about kSliceSeconds each).
struct Slice {
  std::size_t cycles = 0;
  double serving_cpu_s = 0.0;
  double p50_us = 0.0;
  double steal = 0.0;
};

struct Window {
  std::uint64_t cycles = 0;  ///< control cycles inside the window
  double wall_s = 0.0;
  double process_cpu_s = 0.0;
  double generator_cpu_s = 0.0;  ///< load generator's own work
  CycleHistogram cycle_hist;
  double feed_wall_s = 0.0;      ///< direct: summed EngineGroup::feed wall
  double engine_feed_s = 0.0;    ///< direct: engine seconds over the window
  std::uint64_t feeds = 0;
  double group_thread_s = 0.0;
  double io_thread_s = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  double steal_share = 0.0;
  servebench::AttributionCheck::Result attribution;
  std::vector<Slice> slices;
};

class LoadGenerator {
 public:
  LoadGenerator(const Workload& w, Setup& setup)
      : w_(w), in_(setup.inputs), s_(*setup.serving),
        recorded_(in_.checked.size()) {
    batch_.resize(w.sessions);
    decisions_.resize(w.sessions);
    // The setup opened one session per slot; each open returned (direct)
    // or was acknowledged (wire), else setup would have thrown.
    counts_.opens = counts_.opens_acked = w.sessions;
  }

  /// Serve one control cycle; returns its wall time in microseconds.
  double cycle() { return w_.wire ? wire_cycle() : direct_cycle(); }

  Window measure(double seconds) {
    const auto warm0 = Clock::now();
    while (seconds_since(warm0) < kWarmupSeconds) (void)cycle();

    Window win;
    s_.group->reset_latency();
    const auto serve_ticks0 = servebench::tasks_cpu_ticks(s_.group_threads);
    const auto io_ticks0 = servebench::tasks_cpu_ticks(s_.io_threads);
    const net::ServerStats net0 = s_.server ? s_.server->stats() : net::ServerStats{};
    const auto steal0 = host_steal();
    const servebench::AttributionCheck attribution;
    in_feed_cpu_s_ = 0.0;
    feed_wall_s_ = 0.0;
    const double gen0 = servebench::thread_cpu_seconds();
    const double cpu0 = servebench::process_cpu_seconds();
    const auto t0 = Clock::now();
    double slice_cpu0 = cpu0 - gen0;
    auto slice_steal0 = steal0;
    const int slices = std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
    std::vector<double> slice_us;
    for (int k = 1; k <= slices; ++k) {
      slice_us.clear();
      while (seconds_since(t0) < seconds * k / slices) {
        const double us = cycle();
        slice_us.push_back(us);
        win.cycle_hist.add(us);
        ++win.cycles;
      }
      // Serving CPU so far: the process minus the generator's own work.
      const double cpu = servebench::process_cpu_seconds() -
                         (servebench::thread_cpu_seconds() - in_feed_cpu_s_);
      const auto st = host_steal();
      Slice slice;
      slice.cycles = slice_us.size();
      slice.serving_cpu_s = cpu - slice_cpu0;
      slice.p50_us = median(slice_us);
      slice.steal = st.second > slice_steal0.second
                        ? (st.first - slice_steal0.first) / (st.second - slice_steal0.second)
                        : 0.0;
      win.slices.push_back(slice);
      slice_cpu0 = cpu;
      slice_steal0 = st;
    }
    win.wall_s = seconds_since(t0);
    win.process_cpu_s = servebench::process_cpu_seconds() - cpu0;
    // Direct workloads: the generator thread IS the group's frontend
    // inside feed(); only its work outside feed() is load generation.
    win.generator_cpu_s =
        servebench::thread_cpu_seconds() - gen0 - in_feed_cpu_s_;
    win.attribution = attribution.finish();
    const auto steal1 = host_steal();
    win.steal_share = steal1.second > steal0.second
                          ? (steal1.first - steal0.first) /
                                (steal1.second - steal0.second)
                          : 0.0;
    const double hz = servebench::clock_ticks_per_second();
    win.group_thread_s = static_cast<double>(
        servebench::tasks_cpu_ticks(s_.group_threads) - serve_ticks0) / hz;
    win.io_thread_s = static_cast<double>(
        servebench::tasks_cpu_ticks(s_.io_threads) - io_ticks0) / hz;
    win.feed_wall_s = feed_wall_s_;
    win.feeds = w_.wire ? 0 : win.cycles;
    win.engine_feed_s = s_.group->latency().seconds;
    if (s_.server) {
      const net::ServerStats net1 = s_.server->stats();
      win.batches = net1.batches - net0.batches;
      win.bytes_in = net1.bytes_in - net0.bytes_in;
      win.bytes_out = net1.bytes_out - net0.bytes_out;
    }
    // The reference check covers a fixed number of first cycles.
    while (cycle_ < kCheckedCycles) (void)cycle();
    return win;
  }

  /// Close every live session (acknowledged on the wire).
  void close_all() {
    if (!w_.wire) {
      for (const serve::SessionId id : s_.ids) {
        s_.group->close_session(id);
        ++counts_.closes;
        ++counts_.closes_acked;
      }
      return;
    }
    out_.clear();
    for (const WireSlot& slot : s_.wire) {
      append(net::encode(net::CloseSessionMsg{.token = slot.token}));
      ++counts_.closes;
    }
    s_.client->send(out_);
    expect_closes_ = s_.wire.size();
    expect_decisions_ = 0;
    expect_opens_ = 0;
    read_replies();
  }

  [[nodiscard]] const Counts& counts() const { return counts_; }
  [[nodiscard]] std::uint64_t cycles_served() const { return cycle_; }
  [[nodiscard]] const std::vector<std::vector<monitor::Decision>>& recorded()
      const {
    return recorded_;
  }

 private:
  double direct_cycle() {
    for (std::size_t slot = 0; slot < w_.sessions; ++slot) {
      batch_[slot] = {s_.ids[slot], in_.obs(slot, cycle_)};
    }
    const double cpu0 = servebench::thread_cpu_seconds();
    const auto t0 = Clock::now();
    s_.group->feed(batch_, decisions_);
    const auto t1 = Clock::now();
    in_feed_cpu_s_ += servebench::thread_cpu_seconds() - cpu0;
    feed_wall_s_ += std::chrono::duration<double>(t1 - t0).count();
    counts_.ticks += w_.sessions;
    counts_.decisions += w_.sessions;
    record_checked();
    ++cycle_;
    return us_between(t0, t1);
  }

  double wire_cycle() {
    out_.clear();
    expect_opens_ = 0;
    expect_closes_ = 0;
    for (std::size_t slot = 0; slot < w_.sessions; ++slot) {
      WireSlot& ws = s_.wire[slot];
      const std::size_t segment = in_.segment(slot, cycle_);
      if (cycle_ > 0 && segment != in_.segment(slot, cycle_ - 1)) {
        // Trace over: close this session and open the next one in the
        // same write.
        append(net::encode(net::CloseSessionMsg{.token = ws.token}));
        closing_[ws.token] = ws.ticks;
        ws.token = wire_token(slot, segment);
        ws.ticks = 0;
        append(net::encode(net::OpenSessionMsg{
            .token = ws.token,
            .patient_id = wire_patient_id(slot, segment),
            .monitor = monitor_of(w_, slot),
            .patient_index = in_.slot_patient[slot]}));
        ++counts_.closes;
        ++counts_.opens;
        ++expect_closes_;
        ++expect_opens_;
      }
      append(net::encode(net::TickMsg{
          .token = ws.token, .seq = ws.ticks, .obs = in_.obs(slot, cycle_)}));
      ++ws.ticks;
    }
    counts_.ticks += w_.sessions;
    expect_decisions_ = w_.sessions;
    const auto t0 = Clock::now();
    s_.client->send(out_);
    const auto t1 = read_replies();
    record_checked();
    ++cycle_;
    return us_between(t0, t1);
  }

  void append(const net::Frame& frame) {
    const std::vector<std::uint8_t> bytes = net::encode_frame(frame);
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  /// Read until every expected decision and ack of the cycle arrived;
  /// returns when the last decision was read.
  Clock::time_point read_replies() {
    Clock::time_point last_decision = Clock::now();
    while (expect_decisions_ + expect_opens_ + expect_closes_ > 0) {
      const net::Frame frame = s_.client->next();
      switch (frame.kind) {
        case net::FrameKind::kDecision: {
          const net::DecisionMsg msg = net::decode_decision(frame);
          const auto slot = static_cast<std::size_t>(msg.token >> 32);
          if (expect_decisions_ == 0 || slot >= w_.sessions ||
              s_.wire[slot].token != msg.token ||
              s_.wire[slot].ticks != msg.seq + 1) {
            ++counts_.bad_replies;
          } else {
            decisions_[slot] = msg.decision;
          }
          ++counts_.decisions;
          if (expect_decisions_ > 0 && --expect_decisions_ == 0) {
            last_decision = Clock::now();
          }
          break;
        }
        case net::FrameKind::kOpenAck: {
          const net::OpenAckMsg ack = net::decode_open_ack(frame);
          if (ack.ok) ++counts_.opens_acked;
          if (expect_opens_ > 0) --expect_opens_;
          break;
        }
        case net::FrameKind::kCloseAck: {
          const net::CloseAckMsg ack = net::decode_close_ack(frame);
          const auto slot = static_cast<std::size_t>(ack.token >> 32);
          std::optional<std::uint64_t> sent;
          if (const auto it = closing_.find(ack.token); it != closing_.end()) {
            sent = it->second;
            closing_.erase(it);
          } else if (slot < w_.sessions && s_.wire[slot].token == ack.token) {
            sent = s_.wire[slot].ticks;  // final close of a live session
          }
          if (!sent || ack.cycles != *sent) ++counts_.bad_replies;
          ++counts_.closes_acked;
          if (expect_closes_ > 0) --expect_closes_;
          break;
        }
        case net::FrameKind::kReject: {
          const net::RejectMsg reject = net::decode_reject(frame);
          ++counts_.rejects;
          if (reject.seq == 0 && expect_opens_ > 0) {
            --expect_opens_;
          } else if (expect_decisions_ > 0) {
            --expect_decisions_;
          }
          break;
        }
        default:
          throw std::runtime_error(std::string("unexpected ") +
                                   net::frame_kind_name(frame.kind) +
                                   " frame from the server");
      }
    }
    return last_decision;
  }

  void record_checked() {
    if (cycle_ >= kCheckedCycles) return;
    for (std::size_t k = 0; k < in_.checked.size(); ++k) {
      recorded_[k].push_back(decisions_[in_.checked[k]]);
    }
  }

  const Workload& w_;
  const Inputs& in_;
  Serving& s_;
  std::uint64_t cycle_ = 0;
  Counts counts_;
  std::vector<serve::SessionInput> batch_;
  std::vector<monitor::Decision> decisions_;  ///< latest decision per slot
  std::vector<std::vector<monitor::Decision>> recorded_;
  std::vector<std::uint8_t> out_;
  std::map<std::uint64_t, std::uint64_t> closing_;  ///< token -> ticks sent
  std::size_t expect_decisions_ = 0;
  std::size_t expect_opens_ = 0;
  std::size_t expect_closes_ = 0;
  double in_feed_cpu_s_ = 0.0;
  double feed_wall_s_ = 0.0;
};

// ---- Reference check --------------------------------------------------------

struct ReferenceResult {
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t rule_observes = 0;
  double rule_observe_s = 0.0;
};

/// Step a scalar monitor from core::factory_from_bundle over each checked
/// slot's stream (a fresh monitor per wire session) and compare with every
/// decision served to that slot.
ReferenceResult check_reference(const Workload& w, const Inputs& in,
                                const core::ArtifactBundle& bundle,
                                const LoadGenerator& generator) {
  ReferenceResult result;
  std::map<std::string, sim::MonitorFactory> factories;
  for (const auto& name : w.monitors) {
    factories[name] = core::factory_from_bundle(bundle, name);
  }
  std::vector<monitor::Decision> expected;
  for (std::size_t k = 0; k < in.checked.size(); ++k) {
    const std::size_t slot = in.checked[k];
    const std::string& name = monitor_of(w, slot);
    const auto& served = generator.recorded()[k];
    expected.resize(served.size());
    std::unique_ptr<monitor::Monitor> reference;
    const auto t0 = Clock::now();
    for (std::uint64_t c = 0; c < served.size(); ++c) {
      if (!reference ||
          (w.wire && in.segment(slot, c) != in.segment(slot, c - 1))) {
        reference = factories[name](in.slot_patient[slot]);
      }
      expected[c] = reference->observe(in.obs(slot, c));
    }
    if (!w.ml) {
      result.rule_observe_s += seconds_since(t0);
      result.rule_observes += served.size();
    }
    for (std::size_t c = 0; c < served.size(); ++c) {
      ++result.compared;
      if (!same_decision(served[c], expected[c])) ++result.mismatches;
    }
  }
  return result;
}

// ---- Per-layer probes -------------------------------------------------------

/// Median over `reps` repetitions of the per-item time of `body`, where one
/// call of `body` handles `items` items; each repetition loops for at least
/// `min_s` seconds.
template <typename Body>
double per_item_ns(std::size_t items, Body&& body, int reps = 5,
                   double min_s = 0.02) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    do {
      body();
      ++calls;
    } while (seconds_since(t0) < min_s);
    samples.push_back(seconds_since(t0) * 1e9 /
                      static_cast<double>(calls * items));
  }
  return median(samples);
}

struct WireCodec {
  double tick_decode_ns = 0.0;
  double decision_encode_ns = 0.0;
};

/// net/protocol on the workload's own observations: FrameDecoder +
/// decode_tick over one cycle's tick bytes, and encode(DecisionMsg) +
/// encode_frame for one cycle's decisions.
WireCodec probe_codec(const Workload& w, const Inputs& in) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t slot = 0; slot < w.sessions; ++slot) {
    const auto frame = net::encode_frame(net::encode(
        net::TickMsg{.token = slot, .seq = 7, .obs = in.obs(slot, 0)}));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  WireCodec codec;
  codec.tick_decode_ns = per_item_ns(w.sessions, [&] {
    net::FrameDecoder decoder("probe");
    decoder.feed(bytes);
    while (auto frame = decoder.next()) {
      g_sink = g_sink + net::decode_tick(*frame).obs.bg;
    }
  });
  codec.decision_encode_ns = per_item_ns(w.sessions, [&] {
    for (std::size_t slot = 0; slot < w.sessions; ++slot) {
      g_sink = g_sink + net::encode_frame(net::encode(net::DecisionMsg{
                                         .token = slot,
                                         .seq = 7,
                                         .decision = {.alarm = (slot & 1) != 0,
                                                      .predicted = HazardType::kNone,
                                                      .rule_id = -1}}))
                       .size();
    }
  });
  return codec;
}

struct MlProbe {
  double lstm_us_per_lane = 0.0;
  double mlp_us_per_lane = 0.0;
  double dt_us_per_lane = 0.0;
  double lstm_gflops = 0.0;
};

/// FLOPs of one LSTM prediction, computed from the layer sizes: each step
/// of layer l does 4 gates x hidden x (input + hidden) multiply-adds, over
/// the whole window, plus the dense head.
double lstm_flops_per_window() {
  double macs = 0.0;
  std::size_t input = monitor::kMlFeatureCount;
  for (const std::size_t hidden : kLstmHidden) {
    macs += 4.0 * static_cast<double>(hidden * (input + hidden));
    input = hidden;
  }
  macs *= static_cast<double>(monitor::kLstmWindow);
  macs += static_cast<double>(input * 2);
  return 2.0 * macs;
}

/// ml + ml/kernels: timed predict_batch on 64 of the workload's windows
/// (LSTM) and feature rows (MLP, DT).
MlProbe probe_ml(const Inputs& in, const core::ArtifactBundle& bundle) {
  constexpr std::size_t kLanes = 64;
  std::vector<ml::Matrix> windows;
  ml::Matrix rows(kLanes, monitor::kMlFeatureCount);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    ml::Matrix window(monitor::kLstmWindow, monitor::kMlFeatureCount);
    for (std::size_t t = 0; t < monitor::kLstmWindow; ++t) {
      const auto features = monitor::ml_features(in.obs(lane, 10 + t));
      for (std::size_t j = 0; j < features.size(); ++j) window.at(t, j) = features[j];
      if (t + 1 == monitor::kLstmWindow) {
        for (std::size_t j = 0; j < features.size(); ++j) rows.at(lane, j) = features[j];
      }
    }
    windows.push_back(std::move(window));
  }
  MlProbe probe;
  probe.lstm_us_per_lane =
      per_item_ns(kLanes, [&] { g_sink = g_sink + bundle.lstm->predict_batch(windows).size(); }, 5, 0.1) * 1e-3;
  probe.mlp_us_per_lane =
      per_item_ns(kLanes, [&] { g_sink = g_sink + bundle.mlp->predict_batch(rows).size(); }) * 1e-3;
  probe.dt_us_per_lane =
      per_item_ns(kLanes, [&] { g_sink = g_sink + bundle.dt->predict_batch(rows).size(); }) * 1e-3;
  probe.lstm_gflops = lstm_flops_per_window() / (probe.lstm_us_per_lane * 1e3);
  return probe;
}

/// serve/group: open_session / close_session on the live group, p50 in us.
std::pair<double, double> probe_open_close(serve::EngineGroup& group,
                                           const Workload& w) {
  constexpr std::size_t kProbes = 256;
  std::vector<double> open_us;
  std::vector<double> close_us;
  std::vector<serve::SessionId> ids;
  for (std::size_t i = 0; i < kProbes; ++i) {
    const auto t0 = Clock::now();
    ids.push_back(group.open_session("probe/" + std::to_string(i),
                                     w.monitors[i % w.monitors.size()],
                                     static_cast<int>(i % 10)));
    open_us.push_back(us_between(t0, Clock::now()));
  }
  for (const serve::SessionId id : ids) {
    const auto t0 = Clock::now();
    group.close_session(id);
    close_us.push_back(us_between(t0, Clock::now()));
  }
  return {median(open_us), median(close_us)};
}

double phase_p50(obs::Registry& registry, const char* phase) {
  return registry
      .histogram("serve_phase_us", obs::HistogramSpec::latency_us(),
                 {{"phase", phase}})
      .snapshot()
      .percentile(50.0);
}

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path tmpdir = std::filesystem::temp_directory_path();
};

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("flag " + key + " needs a value");
    }
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--tmpdir") {
      options.tmpdir = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

int run(const Options& options, Clock::time_point process_start) {
  const Workload w = workload_by_name(options.workload);

  // Set up several times and keep the last; setup_s is the median, the
  // first repetition counted from process start.
  std::vector<double> setup_s;
  std::vector<double> inputs_s;
  std::vector<double> load_ms;
  std::optional<Setup> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup.reset();  // tear the previous repetition down, untimed
    const auto t0 = r == 0 ? process_start : Clock::now();
    setup.emplace(make_setup(w, options.seed, options.trace, options.tmpdir));
    setup_s.push_back(seconds_since(t0));
    inputs_s.push_back(setup->inputs_s);
    load_ms.push_back(setup->bundle_load_ms);
  }
  Serving& s = *setup->serving;
  const Inputs& in = setup->inputs;

  LoadGenerator generator(w, *setup);
  const Window win = generator.measure(options.seconds);
  const double peak_rss = servebench::peak_rss_mb();
  const double session_cycles =
      static_cast<double>(win.cycles) * static_cast<double>(w.sessions);
  // The host's speed drifts over seconds to minutes (steal, clock, noisy
  // neighbours) and that only ever slows cycles down, so the end-to-end
  // figures are the lower decile over the window's half-second slices;
  // whole-window figures are printed beside them.
  std::vector<double> slice_cpu_us;
  std::vector<double> slice_p50_us;
  std::vector<double> slice_steal;
  for (const Slice& slice : win.slices) {
    if (slice.cycles == 0) continue;
    slice_cpu_us.push_back(slice.serving_cpu_s * 1e6 /
                           static_cast<double>(slice.cycles * w.sessions));
    slice_p50_us.push_back(slice.p50_us);
    slice_steal.push_back(100.0 * slice.steal);
  }
  const double cpu_us_per_cycle = lower_decile(slice_cpu_us);
  const double cycle_p50 = lower_decile(slice_p50_us);
  const double window_cpu_us =
      (win.process_cpu_s - win.generator_cpu_s) * 1e6 / session_cycles;
  const Tail tail = tail_of(win.cycle_hist);
  const serve::LatencySummary latency = s.group->latency();

  // Per-layer reads of the live stack, before the sessions close.
  std::vector<Metric> layers;
  if (options.trace) {
    std::vector<double> scrape_us;
    for (int i = 0; i < 9; ++i) {
      const auto t0 = Clock::now();
      g_sink = g_sink + static_cast<double>(s.registry->scrape_prometheus().size());
      scrape_us.push_back(us_between(t0, Clock::now()));
    }
    const auto [open_us, close_us] = probe_open_close(*s.group, w);
    layers.push_back({"serve.open_us", open_us, "us"});
    layers.push_back({"serve.close_us", close_us, "us"});
    layers.push_back({"obs.scrape_us", median(scrape_us), "us"});
    layers.push_back({"serve.phase.ingest_us", phase_p50(*s.registry, "ingest"), "us"});
    layers.push_back({"serve.phase.dispatch_us", phase_p50(*s.registry, "dispatch"), "us"});
    layers.push_back({"serve.phase.predict_us", phase_p50(*s.registry, "predict"), "us"});
    layers.push_back({"serve.phase.merge_us", phase_p50(*s.registry, "merge"), "us"});
  }
  const std::uint64_t alarms = s.registry->counter_value("serve_alarms_total");
  const std::uint64_t served_cycles = s.registry->counter_value("serve_cycles_total");

  // ---- Checks (outside the window) ----
  generator.close_all();
  const Counts& counts = generator.counts();
  net::ServerStats net_stats;
  if (s.server) {
    s.client.reset();
    s.server->stop();
    net_stats = s.server->stats();
  }
  const std::uint64_t degraded = s.group->latency().degraded_ticks;

  const ReferenceResult reference = check_reference(w, in, setup->bundle, generator);

  net::ReplayResult replay;
  double replay_s = 0.0;
  std::uint64_t listfile_bytes = 0;
  if (w.wire) {
    listfile_bytes = std::filesystem::file_size(s.listfile);
    serve::GroupConfig config;
    config.replicas = 1;
    config.engine.threads = 1;
    config.engine.telemetry = false;
    serve::EngineGroup fresh(config);
    fresh.register_bundle(setup->bundle);
    const auto t0 = Clock::now();
    replay = net::replay_listfile(s.listfile, fresh.replica(0));
    replay_s = seconds_since(t0);
  }

  // Failures: every operation that was not answered exactly as expected.
  std::uint64_t failed = 0;
  failed += counts.ticks - std::min(counts.ticks, counts.decisions);
  failed += counts.opens - std::min(counts.opens, counts.opens_acked);
  failed += counts.closes - std::min(counts.closes, counts.closes_acked);
  failed += counts.rejects + counts.bad_replies + reference.mismatches;
  failed += degraded + net_stats.frames_dropped + net_stats.protocol_errors +
            net_stats.rejected;
  if (w.wire) {
    failed += replay.mismatches + replay.unmatched;
    if (replay.ticks != counts.ticks) {
      failed += replay.ticks > counts.ticks ? replay.ticks - counts.ticks
                                            : counts.ticks - replay.ticks;
    }
  }
  const std::uint64_t attempted = counts.ticks + counts.opens + counts.closes;
  bool correct = failed == 0 && reference.compared > 0 &&
                 served_cycles == counts.ticks;
  if (!w.ml && alarms == 0) correct = false;  // rule monitors must alarm
  // Per-thread /proc times are whole clock ticks, so their sum may trail
  // getrusage by up to one tick per thread, never more.
  if (options.trace &&
      win.attribution.gap_ticks > static_cast<double>(win.attribution.threads)) {
    correct = false;
  }
  if (w.wire && (replay.sessions_opened != counts.opens ||
                 replay.sessions_closed != counts.closes)) {
    correct = false;
  }

  // ---- Report ----
  std::printf("servebench %s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("  sessions %zu  traces %zu x %zu steps  checked slots %zu\n",
              w.sessions, in.traces.size(), in.trace_len, in.checked.size());
  std::printf("  window %.3f s  %llu cycles  %.0f session-cycles  steal %.2f%%\n",
              win.wall_s, static_cast<unsigned long long>(win.cycles),
              session_cycles, 100.0 * win.steal_share);
  std::printf("  cpu_us_per_cycle %.4f us  cycle_p50_us %.2f us  setup_s %.4f s  "
              "peak_rss_mb %.1f MB\n",
              cpu_us_per_cycle, cycle_p50, median(setup_s), peak_rss);
  std::printf("  whole window: cpu %.4f us per session-cycle, cycle p50 %.2f us\n",
              window_cpu_us, win.cycle_hist.percentile(50.0));
  std::printf("  %zu slices: cpu %.4f..%.4f us, p50 %.2f..%.2f us, steal %.1f..%.1f%%\n",
              slice_cpu_us.size(), min_of(slice_cpu_us), max_of(slice_cpu_us),
              min_of(slice_p50_us), max_of(slice_p50_us), min_of(slice_steal),
              max_of(slice_steal));
  if (tail.percentile > 0.0) {
    std::printf("  cycle tail p%g %.2f us over %zu cycles (not gated)\n",
                tail.percentile, tail.value, tail.samples);
  }
  std::printf("  engine tick p50 %.2f us p99 %.2f us over %llu ticks\n",
              latency.p50_us, latency.p99_us,
              static_cast<unsigned long long>(latency.ticks));
  std::printf("  ops: ticks %llu opens %llu closes %llu  attempted %llu failed %llu\n",
              static_cast<unsigned long long>(counts.ticks),
              static_cast<unsigned long long>(counts.opens),
              static_cast<unsigned long long>(counts.closes),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("  check: %llu decisions vs scalar reference, %llu mismatches; "
              "alarms %llu of %llu cycles",
              static_cast<unsigned long long>(reference.compared),
              static_cast<unsigned long long>(reference.mismatches),
              static_cast<unsigned long long>(alarms),
              static_cast<unsigned long long>(served_cycles));
  if (w.wire) {
    std::printf("; replay %llu ticks, %llu mismatches, %llu unmatched",
                static_cast<unsigned long long>(replay.ticks),
                static_cast<unsigned long long>(replay.mismatches),
                static_cast<unsigned long long>(replay.unmatched));
  }
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {{"cpu_us_per_cycle", cpu_us_per_cycle, "us"},
               {"cycle_p50_us", cycle_p50, "us"},
               {"setup_s", median(setup_s), "s"},
               {"peak_rss_mb", peak_rss, "MB"}};
  } else {
    const WireCodec codec = probe_codec(w, in);
    const MlProbe ml_probe = w.ml ? probe_ml(in, setup->bundle) : MlProbe{};
    const double ticks_window = session_cycles;
    const double wire_ticks = static_cast<double>(counts.ticks);
    metrics = {
        {"net.io_cpu_us_per_cycle", win.io_thread_s * 1e6 / session_cycles, "us"},
        {"net.tick_decode_ns", codec.tick_decode_ns, "ns"},
        {"net.decision_encode_ns", codec.decision_encode_ns, "ns"},
        {"net.batches_per_cycle",
         w.wire ? static_cast<double>(win.batches) / static_cast<double>(win.cycles) : 0.0,
         "count"},
        {"net.bytes_in_per_tick",
         w.wire ? static_cast<double>(win.bytes_in) / ticks_window : 0.0, "bytes"},
        {"net.bytes_out_per_tick",
         w.wire ? static_cast<double>(win.bytes_out) / ticks_window : 0.0, "bytes"},
        {"net.listfile.bytes_per_tick",
         w.wire ? static_cast<double>(listfile_bytes) / wire_ticks : 0.0, "bytes"},
        {"net.listfile.replay_us_per_tick",
         w.wire ? replay_s * 1e6 / wire_ticks : 0.0, "us"},
        {"serve.worker_cpu_us_per_cycle", win.group_thread_s * 1e6 / session_cycles, "us"},
        {"serve.tick_p50_us", latency.p50_us, "us"},
        {"serve.group_overhead_us",
         win.feeds > 0 ? (win.feed_wall_s - win.engine_feed_s) * 1e6 /
                             static_cast<double>(win.feeds)
                       : 0.0,
         "us"},
        {"ml.lstm_us_per_lane", ml_probe.lstm_us_per_lane, "us"},
        {"ml.mlp_us_per_lane", ml_probe.mlp_us_per_lane, "us"},
        {"ml.dt_us_per_lane", ml_probe.dt_us_per_lane, "us"},
        {"ml.lstm_gflops", ml_probe.lstm_gflops, "GFLOP/s"},
        {"monitor.rule_observe_ns",
         reference.rule_observes > 0
             ? reference.rule_observe_s * 1e9 / static_cast<double>(reference.rule_observes)
             : 0.0,
         "ns"},
        {"monitor.alarms_per_1k_cycles",
         1e3 * static_cast<double>(alarms) / static_cast<double>(served_cycles), "count"},
        {"setup.inputs_s", median(inputs_s), "s"},
        {"setup.bundle_load_ms", median(load_ms), "ms"},
        {"traced.cpu_us_per_cycle", cpu_us_per_cycle, "us"},
        {"traced.cycle_p50_us", cycle_p50, "us"},
    };
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    std::printf("  attribution: /proc per-thread sum vs getrusage differ by "
                "%.2f ticks over %zu threads\n",
                win.attribution.gap_ticks, win.attribution.threads);
    for (const Metric& m : metrics) {
      std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  try {
    return run(parse_options(argc, argv), process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
