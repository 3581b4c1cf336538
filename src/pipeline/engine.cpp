#include "pipeline/engine.h"

#include <atomic>
#include <mutex>

#include "telemetry/trace.h"

namespace acgpu {
namespace {

/// Process-unique engine ids, across every device (see Engine::id).
std::atomic<std::uint32_t> g_next_engine_id{0};

/// The pipeline inherits the engine's telemetry unchanged and reports its
/// stream/lease activity to the bound device's observer seam.
pipeline::PipelineOptions to_pipeline_options(const EngineOptions& options,
                                              const Device& device) {
  pipeline::PipelineOptions popt;
  popt.variant = options.variant;
  popt.scheme = options.scheme;
  popt.stt_placement = options.stt_placement;
  popt.streams = options.streams;
  popt.batch_bytes = options.batch_bytes;
  popt.pool_depth = options.pool_depth;
  popt.readback_depth = options.readback_depth;
  popt.split_readback = options.split_readback;
  popt.chunk_bytes = options.chunk_bytes;
  popt.threads_per_block = options.threads_per_block;
  popt.match_capacity = options.match_capacity;
  popt.mode = options.mode;
  popt.telemetry = options.telemetry;
  popt.host_observer = device.host_observer();
  return popt;
}

}  // namespace

Result<Engine> Engine::build(Device& device, const ac::PatternSet* patterns,
                             ac::Dfa* dfa, const EngineOptions& options) {
  const pipeline::PipelineOptions popt = to_pipeline_options(options, device);
  if (Status s = popt.validate(); !s) return s;

  Engine engine;
  engine.options_ = options;
  engine.id_ = g_next_engine_id.fetch_add(1, std::memory_order_relaxed);
  engine.device_ = &device;
  try {
    if (patterns != nullptr) {
      engine.patterns_ = *patterns;
      if (engine.options_.variant == pipeline::KernelVariant::kPfac) {
        engine.pfac_ = std::make_unique<ac::PfacAutomaton>(*patterns);
        engine.dpfac_ = std::make_unique<kernels::DevicePfac>(device.memory(),
                                                              *engine.pfac_);
        engine.pipeline_ = std::make_unique<pipeline::MatchPipeline>(
            device.gpu(), device.memory(), *engine.dpfac_, popt);
      }
      // The host DFA is built for every variant: dfa() is part of the facade
      // (serial cross-checks, pattern metadata) even when PFAC matches.
      engine.dfa_ = std::make_unique<ac::Dfa>(
          ac::build_dfa(*patterns, /*pad_pitch_to=*/8));
    } else {
      engine.dfa_ = std::make_unique<ac::Dfa>(std::move(*dfa));
    }
    if (engine.options_.variant != pipeline::KernelVariant::kPfac) {
      engine.ddfa_ =
          std::make_unique<kernels::DeviceDfa>(device.memory(), *engine.dfa_);
      engine.pipeline_ = std::make_unique<pipeline::MatchPipeline>(
          device.gpu(), device.memory(), *engine.ddfa_, popt);
    }
  } catch (const std::exception& e) {
    return Status::from_exception(e);
  }
  return engine;
}

Result<Engine> Engine::create(Device& device, const ac::PatternSet& patterns,
                              const EngineOptions& options) {
  if (patterns.empty()) return Status::invalid_argument("empty pattern set");
  return build(device, &patterns, nullptr, options);
}

Result<Engine> Engine::create(Device& device, ac::Dfa dfa,
                              const EngineOptions& options) {
  if (dfa.pattern_count() == 0)
    return Status::invalid_argument("DFA has no patterns");
  if (options.variant == pipeline::KernelVariant::kPfac)
    return Status::invalid_argument(
        "PFAC rebuilds its automaton from the pattern set; use "
        "Engine::create(Device&, PatternSet, ...) for variant kPfac");
  return build(device, nullptr, &dfa, options);
}

Result<ScanResult> Engine::scan(std::string_view text) {
  if (pipeline_ == nullptr)
    return Status::internal("Engine used after being moved from");
  if (!device_->healthy())
    return Status::unavailable("device '" + device_->name() +
                               "' is marked failed: " + device_->fail_reason());
  ACGPU_TRACE_SPAN(options_.telemetry.tracer, "engine.scan");
  // Engines sharing the device share its arena (each run marks/releases a
  // per-run region), so scans on one device are serialized here. Engines on
  // different devices proceed concurrently.
  std::scoped_lock lock(device_->scan_mutex());
  return pipeline_->run(text);
}

}  // namespace acgpu
