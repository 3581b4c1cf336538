// acgpu::dispatch — the brain that routes scans between backends.
//
// Two layers:
//
//   Dispatcher      advisory and shareable: owns the CostModel, the
//                   per-dfa PatternStats, and the dispatch.* telemetry.
//                   serve::StreamService (host-DFA-vs-device per
//                   superbatch) and cluster::Router (bulk scans) consult
//                   one via choose()/observe() while keeping their own
//                   execution paths. Thread-safe — serve workers and the
//                   router's caller thread may race on it.
//
//   DispatchEngine  executing facade for benches, the oracle matcher, and
//                   single-device embedders: owns a private Device, the
//                   GPU Engine, and the Dispatcher; scan() extracts the
//                   signature, routes to ac::find_all /
//                   ac::find_all_parallel / Engine::scan, feeds the
//                   outcome back into the model, and reports which backend
//                   ran plus its modeled seconds. At creation it
//                   calibrates the CPU curve from a synthetic sample and
//                   the GPU curve from a two-point probe, loads the
//                   TuneCache, and lazily builds per-bucket engines from
//                   cached winners.
//
// All costs are deterministic modeled seconds (cpumodel / gpusim), so the
// routing decisions — and the regression gate pinning them — are identical
// on every machine. See docs/DISPATCH.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "dispatch/autotuner.h"
#include "dispatch/cost_model.h"
#include "dispatch/signature.h"
#include "dispatch/tune_cache.h"
#include "pipeline/engine.h"
#include "telemetry/metrics_registry.h"

namespace acgpu::dispatch {

/// Routing override: kAuto trusts the cost model; the fixed policies pin
/// one backend (static-baseline benches); kWorst picks the model's
/// predicted-slowest backend — the WILL_FAIL regression demo.
enum class ForcePolicy : std::uint8_t {
  kAuto = 0,
  kSerial,
  kParallel,
  kGpu,
  kWorst,
};

struct DispatcherOptions {
  CostModelConfig cost;
  ForcePolicy force = ForcePolicy::kAuto;
  /// An auto decision counts as mispredicted when its actual modeled
  /// seconds exceed the predicted runner-up by this fraction.
  double mispredict_margin = 0.10;
  /// Optional dispatch.* series (decisions per backend, mispredictions,
  /// tune-cache traffic). Null = counters still kept in-process.
  telemetry::MetricsRegistry* metrics = nullptr;
};

struct Decision {
  Backend backend = Backend::kSerialCpu;
  Prediction prediction;
  bool forced = false;
};

/// Aggregate counters, mirrored to telemetry when a registry is wired.
struct DispatchStats {
  std::uint64_t decisions[kBackendCount] = {0, 0, 0};
  std::uint64_t mispredictions = 0;
  std::uint64_t tune_cache_hits = 0;
  std::uint64_t tune_cache_misses = 0;
  std::uint64_t tunes = 0;
};

class Dispatcher {
 public:
  /// `dfa` must outlive the dispatcher (pattern stats are cached from it).
  Dispatcher(const ac::Dfa& dfa, const DispatcherOptions& options = {});

  const PatternStats& pattern_stats() const { return stats_; }
  WorkloadSignature signature(std::string_view text, bool session) const {
    return make_signature(stats_, text, session);
  }

  /// Ranks the backends for `sig` and applies the force policy; bumps the
  /// per-backend decision counter. The overload overrides the configured
  /// policy for this one decision (static-baseline benches).
  Decision choose(const WorkloadSignature& sig);
  Decision choose(const WorkloadSignature& sig, ForcePolicy force);

  /// Feeds the executed decision's actual modeled seconds back: refines
  /// the per-bucket EWMA and, for unforced decisions that lost to the
  /// predicted runner-up by more than the margin, counts a misprediction.
  void observe(const Decision& decision, const WorkloadSignature& sig,
               double actual_seconds);

  /// Tune-cache traffic hooks (DispatchEngine / Autotuner drivers call
  /// these so the counters live with the rest of dispatch.*).
  void note_tune_cache(bool hit);
  void note_tune();

  CostModel& cost_model() { return model_; }
  const CostModel& cost_model() const { return model_; }
  const DispatcherOptions& options() const { return options_; }
  DispatchStats stats() const;

 private:
  DispatcherOptions options_;
  PatternStats stats_;
  CostModel model_;

  std::atomic<std::uint64_t> decisions_[kBackendCount] = {};
  std::atomic<std::uint64_t> mispredictions_{0};
  std::atomic<std::uint64_t> tune_cache_hits_{0};
  std::atomic<std::uint64_t> tune_cache_misses_{0};
  std::atomic<std::uint64_t> tunes_{0};

  telemetry::Counter* decision_counters_[kBackendCount] = {};
  telemetry::Counter* mispredict_counter_ = nullptr;
  telemetry::Counter* tune_hit_counter_ = nullptr;
  telemetry::Counter* tune_miss_counter_ = nullptr;
  telemetry::Counter* tune_counter_ = nullptr;
};

struct DispatchEngineOptions {
  /// Base GPU engine config; `gpu`/`device_memory_bytes` size the facade's
  /// private Device.
  EngineOptions engine;
  DispatcherOptions dispatcher;

  /// Calibration at create: CPU cycles/byte from a synthetic sample, GPU
  /// overhead+slope from a two-point scan probe through the real engine.
  bool calibrate = true;
  std::uint64_t probe_small_bytes = 64u << 10;
  std::uint64_t probe_large_bytes = 256u << 10;

  /// Autotune cache: "" disables persistence. When `autotune_on_miss` is
  /// set, a GPU-routed bucket with no cached winner is tuned inline with
  /// `tune_budget` (offline/CLI use — never enable on a latency path).
  std::string tune_cache_path;
  bool autotune_on_miss = false;
  TuneBudget tune_budget;
  /// Cap on distinct per-bucket tuned engines kept alive (beyond it, the
  /// base engine serves the bucket).
  std::uint32_t max_tuned_engines = 4;
};

struct DispatchResult {
  std::vector<ac::Match> matches;  ///< normalized (end, pattern)
  Backend backend = Backend::kSerialCpu;
  double modeled_seconds = 0.0;
  bool overflowed = false;
};

class DispatchEngine {
 public:
  static Result<DispatchEngine> create(const ac::PatternSet& patterns,
                                       const DispatchEngineOptions& options =
                                           {});

  DispatchEngine(DispatchEngine&&) noexcept;
  DispatchEngine& operator=(DispatchEngine&&) noexcept;
  ~DispatchEngine();

  /// Routes per the cost model (or the force policy) and executes.
  Result<DispatchResult> scan(std::string_view text);

  /// Pins one backend for this scan — the static baselines benches compare
  /// the dispatcher against. Still feeds observe() (forced, so never a
  /// misprediction).
  Result<DispatchResult> scan_forced(std::string_view text, Backend backend);

  /// One scan under an explicit policy (kWorst drives the WILL_FAIL demo).
  Result<DispatchResult> scan_with(std::string_view text, ForcePolicy force);

  Dispatcher& dispatcher();
  const ac::Dfa& dfa() const;
  Engine& gpu_engine();
  Device& device();
  const TuneCache& tune_cache() const;
  /// Persists the tune cache (no-op without a configured path).
  Status save_tune_cache() const;

 private:
  struct Impl;
  explicit DispatchEngine(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace acgpu::dispatch
