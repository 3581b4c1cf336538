#include "dispatch/dispatcher.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "ac/parallel_matcher.h"
#include "ac/serial_matcher.h"

namespace acgpu::dispatch {

Dispatcher::Dispatcher(const ac::Dfa& dfa, const DispatcherOptions& options)
    : options_(options), stats_(compute_pattern_stats(dfa)),
      model_(options.cost) {
  if (options_.metrics != nullptr) {
    telemetry::MetricsRegistry& m = *options_.metrics;
    for (int b = 0; b < kBackendCount; ++b)
      decision_counters_[b] = &m.counter(
          std::string("dispatch.decisions.") +
          to_string(static_cast<Backend>(b)));
    mispredict_counter_ = &m.counter("dispatch.mispredictions");
    tune_hit_counter_ = &m.counter("dispatch.tune_cache.hits");
    tune_miss_counter_ = &m.counter("dispatch.tune_cache.misses");
    tune_counter_ = &m.counter("dispatch.tune_cache.tunes");
  }
}

Decision Dispatcher::choose(const WorkloadSignature& sig) {
  return choose(sig, options_.force);
}

Decision Dispatcher::choose(const WorkloadSignature& sig,
                            ForcePolicy force) {
  Decision d;
  d.prediction = model_.predict_all(sig);
  switch (force) {
    case ForcePolicy::kAuto:
      d.backend = d.prediction.best;
      break;
    case ForcePolicy::kSerial:
      d.backend = Backend::kSerialCpu;
      d.forced = true;
      break;
    case ForcePolicy::kParallel:
      d.backend = Backend::kParallelCpu;
      d.forced = true;
      break;
    case ForcePolicy::kGpu:
      d.backend = Backend::kGpuPipeline;
      d.forced = true;
      break;
    case ForcePolicy::kWorst: {
      int worst = 0;
      for (int b = 1; b < kBackendCount; ++b)
        if (d.prediction.seconds[static_cast<std::size_t>(b)] >
            d.prediction.seconds[static_cast<std::size_t>(worst)])
          worst = b;
      d.backend = static_cast<Backend>(worst);
      d.forced = true;
      break;
    }
  }
  const auto b = static_cast<std::size_t>(d.backend);
  decisions_[b].fetch_add(1, std::memory_order_relaxed);
  if (decision_counters_[b] != nullptr) decision_counters_[b]->add(1);
  return d;
}

void Dispatcher::observe(const Decision& decision,
                         const WorkloadSignature& sig,
                         double actual_seconds) {
  model_.observe(decision.backend, sig, actual_seconds);
  if (decision.forced) return;
  if (actual_seconds > decision.prediction.runner_up_seconds *
                           (1.0 + options_.mispredict_margin)) {
    mispredictions_.fetch_add(1, std::memory_order_relaxed);
    if (mispredict_counter_ != nullptr) mispredict_counter_->add(1);
  }
}

void Dispatcher::note_tune_cache(bool hit) {
  if (hit) {
    tune_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (tune_hit_counter_ != nullptr) tune_hit_counter_->add(1);
  } else {
    tune_cache_misses_.fetch_add(1, std::memory_order_relaxed);
    if (tune_miss_counter_ != nullptr) tune_miss_counter_->add(1);
  }
}

void Dispatcher::note_tune() {
  tunes_.fetch_add(1, std::memory_order_relaxed);
  if (tune_counter_ != nullptr) tune_counter_->add(1);
}

DispatchStats Dispatcher::stats() const {
  DispatchStats s;
  for (int b = 0; b < kBackendCount; ++b)
    s.decisions[b] = decisions_[b].load(std::memory_order_relaxed);
  s.mispredictions = mispredictions_.load(std::memory_order_relaxed);
  s.tune_cache_hits = tune_cache_hits_.load(std::memory_order_relaxed);
  s.tune_cache_misses = tune_cache_misses_.load(std::memory_order_relaxed);
  s.tunes = tunes_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// DispatchEngine

struct DispatchEngine::Impl {
  DispatchEngineOptions options;
  ac::PatternSet patterns;
  // Heap-held so its address is stable: the engines below keep a reference
  // to it across the Impl's own moves. Declared before them so it outlives
  // them on destruction.
  std::unique_ptr<Device> device;
  Engine engine;  // base GPU engine (created with options.engine)
  Dispatcher dispatcher;
  TuneCache cache;
  std::uint64_t dict_hash = 0;

  // bucket key -> tuned engine (nullptr sentinel = resolved to base).
  std::mutex tuned_mu;
  std::map<std::string, std::unique_ptr<Engine>> tuned;

  Impl(DispatchEngineOptions opts, ac::PatternSet pats,
       std::unique_ptr<Device> dev, Engine eng)
      : options(std::move(opts)),
        patterns(std::move(pats)),
        device(std::move(dev)),
        engine(std::move(eng)),
        dispatcher(engine.dfa(), options.dispatcher) {}

  // Resolves which engine a GPU-routed bucket runs on: a cached tuned
  // winner if one exists (lazily instantiated, capped), else the base
  // engine. Counts cache traffic once per bucket.
  Engine& engine_for(const SignatureBucket& bucket) {
    const std::string key = bucket_key(bucket);
    std::lock_guard<std::mutex> lock(tuned_mu);
    auto it = tuned.find(key);
    if (it != tuned.end())
      return it->second != nullptr ? *it->second : engine;

    std::optional<TunedParams> params = cache.find(dict_hash, key);
    if (!params.has_value() && options.autotune_on_miss) {
      dispatcher.note_tune_cache(false);
      Autotuner tuner(*device, patterns, options.engine);
      Result<TuneOutcome> tuned_r =
          tuner.tune(bucket, options.tune_budget, &cache);
      if (tuned_r.is_ok() && !tuned_r.value().from_cache) {
        dispatcher.note_tune();
        params = tuned_r.value().params;
      }
    } else {
      dispatcher.note_tune_cache(params.has_value());
    }

    std::unique_ptr<Engine> built;
    if (params.has_value() &&
        tuned.size() < options.max_tuned_engines) {
      EngineOptions opt = options.engine;
      opt.threads_per_block = params->threads_per_block;
      opt.chunk_bytes = params->chunk_bytes;
      opt.pool_depth = params->pool_depth;
      opt.streams = params->streams;
      opt.split_readback = params->split_readback;
      Result<Engine> e = Engine::create(*device, patterns, opt);
      if (e.is_ok()) built = std::make_unique<Engine>(std::move(e.value()));
    }
    auto [pos, _] = tuned.emplace(key, std::move(built));
    return pos->second != nullptr ? *pos->second : engine;
  }
};

DispatchEngine::DispatchEngine(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
DispatchEngine::DispatchEngine(DispatchEngine&&) noexcept = default;
DispatchEngine& DispatchEngine::operator=(DispatchEngine&&) noexcept =
    default;
DispatchEngine::~DispatchEngine() = default;

Result<DispatchEngine> DispatchEngine::create(
    const ac::PatternSet& patterns, const DispatchEngineOptions& options) {
  DeviceOptions dopt;
  dopt.gpu = options.engine.gpu;
  dopt.memory_bytes = options.engine.device_memory_bytes;
  Result<Device> created = Device::create(dopt);
  if (!created.is_ok()) return created.status();
  // The Engine keeps a reference to its Device, so the Device must live at
  // a stable address before Engine::create sees it.
  auto device = std::make_unique<Device>(std::move(created.value()));

  Result<Engine> engine = Engine::create(*device, patterns, options.engine);
  if (!engine.is_ok()) return engine.status();

  auto impl = std::make_unique<Impl>(options, patterns, std::move(device),
                                     std::move(engine.value()));
  impl->dict_hash =
      dictionary_hash(impl->patterns, chip_salt(impl->device->gpu()));
  if (!impl->options.tune_cache_path.empty()) {
    Status loaded = impl->cache.load(impl->options.tune_cache_path);
    if (!loaded.is_ok()) return loaded;
  }

  CostModel& model = impl->dispatcher.cost_model();
  if (impl->options.calibrate) {
    // CPU curve: cycles/byte over a synthetic 16 KiB sample built from the
    // dictionary (same generator the autotuner probes with).
    SignatureBucket sample_bucket;
    sample_bucket.size_class = 14;
    const std::string sample = make_probe_text(
        impl->patterns, sample_bucket, 16u << 10, impl->dict_hash);
    model.calibrate_cpu(impl->engine.dfa(), sample);

    // GPU curve: two-point probe through the real engine, fit to
    // overhead + bytes/slope. Falls back to the analytic seed when the
    // probe is degenerate (equal times, failed scans).
    SignatureBucket small_b, large_b;
    small_b.size_class = 63;  // size_class 63 = "use max_bytes exactly"
    large_b.size_class = 63;
    const std::string small_text =
        make_probe_text(impl->patterns, small_b,
                        impl->options.probe_small_bytes, impl->dict_hash);
    const std::string large_text = make_probe_text(
        impl->patterns, large_b, impl->options.probe_large_bytes,
        impl->dict_hash);
    Result<ScanResult> s = impl->engine.scan(small_text);
    Result<ScanResult> l = impl->engine.scan(large_text);
    if (s.is_ok() && l.is_ok()) {
      const double ts = s.value().stats.makespan_seconds;
      const double tl = l.value().stats.makespan_seconds;
      const double db = static_cast<double>(large_text.size()) -
                        static_cast<double>(small_text.size());
      if (tl > ts && db > 0.0) {
        const double slope_bps = db / (tl - ts);
        const double overhead =
            std::max(0.0, ts - static_cast<double>(small_text.size()) /
                                   slope_bps);
        model.set_gpu_curve(overhead, slope_bps);
      }
    }
  }
  return DispatchEngine(std::move(impl));
}

Result<DispatchResult> DispatchEngine::scan(std::string_view text) {
  return scan_with(text, impl_->dispatcher.options().force);
}

Result<DispatchResult> DispatchEngine::scan_with(std::string_view text,
                                                 ForcePolicy force) {
  const WorkloadSignature sig =
      impl_->dispatcher.signature(text, /*session=*/false);
  Decision decision = impl_->dispatcher.choose(sig, force);

  DispatchResult out;
  out.backend = decision.backend;
  const cpumodel::CpuConfig& cpu =
      impl_->dispatcher.cost_model().config().cpu;
  switch (decision.backend) {
    case Backend::kSerialCpu: {
      out.matches = ac::find_all(impl_->engine.dfa(), text);
      out.modeled_seconds = modeled_serial_seconds(impl_->engine.dfa(), text, cpu);
      break;
    }
    case Backend::kParallelCpu: {
      const CostModelConfig& cfg = impl_->dispatcher.cost_model().config();
      out.matches = ac::find_all_parallel(impl_->engine.dfa(), text,
                                          cfg.parallel_threads);
      out.modeled_seconds =
          modeled_parallel_seconds(impl_->engine.dfa(), text, cfg);
      break;
    }
    case Backend::kGpuPipeline: {
      Engine& engine = impl_->engine_for(bucket_of(sig));
      Result<ScanResult> scan = engine.scan(text);
      if (!scan.is_ok()) return scan.status();
      out.matches = std::move(scan.value().matches);
      out.overflowed = scan.value().overflowed;
      out.modeled_seconds = scan.value().stats.makespan_seconds;
      break;
    }
  }
  ac::normalize_matches(out.matches);
  impl_->dispatcher.observe(decision, sig, out.modeled_seconds);
  return out;
}

Result<DispatchResult> DispatchEngine::scan_forced(std::string_view text,
                                                   Backend backend) {
  ForcePolicy force = ForcePolicy::kAuto;
  switch (backend) {
    case Backend::kSerialCpu: force = ForcePolicy::kSerial; break;
    case Backend::kParallelCpu: force = ForcePolicy::kParallel; break;
    case Backend::kGpuPipeline: force = ForcePolicy::kGpu; break;
  }
  return scan_with(text, force);
}

Dispatcher& DispatchEngine::dispatcher() { return impl_->dispatcher; }
const ac::Dfa& DispatchEngine::dfa() const { return impl_->engine.dfa(); }
Engine& DispatchEngine::gpu_engine() { return impl_->engine; }
Device& DispatchEngine::device() { return *impl_->device; }
const TuneCache& DispatchEngine::tune_cache() const { return impl_->cache; }

Status DispatchEngine::save_tune_cache() const {
  if (impl_->options.tune_cache_path.empty()) return Status::ok();
  return impl_->cache.save(impl_->options.tune_cache_path);
}

}  // namespace acgpu::dispatch
