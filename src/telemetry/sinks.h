// telemetry::Sinks — the one telemetry value a layer is configured with.
//
// Every layer that reports (Engine, MatchPipeline, serve::StreamService)
// takes the same value, passed down unchanged: EngineOptions::telemetry
// carries it, the Engine hands it to PipelineOptions::telemetry, and the
// serve layer reads its engine's copy for its own recorder events and series
// prefix. The cluster Router builds one per shard and gives that shard's
// serve engine and bulk engine the identical value, so the shard index on a
// flight-recorder event and the device.<k>. prefix on a series always agree.
//
// Everything defaults to off: null sinks cost one branch per batch/event.
#pragma once

#include <cstdint>
#include <string>

namespace acgpu::telemetry {

class MetricsRegistry;
class Tracer;
class FlightRecorder;
class Logger;

struct Sinks {
  /// gpusim.* / pipeline.* series (telemetry/metrics_registry.h).
  MetricsRegistry* metrics = nullptr;
  /// engine.scan -> pipeline.run -> pipeline.batch -> kernel.simulate spans
  /// (telemetry/trace.h).
  Tracer* tracer = nullptr;
  /// Always-on flight recorder (telemetry/flight_recorder.h): batch, lease,
  /// and — from the serve layer — admission/reject/eviction events.
  FlightRecorder* recorder = nullptr;
  /// Severity/rate-limited log sink (telemetry/logger.h) for one-time
  /// warnings such as the stream clamp. Null = the process-global logger.
  Logger* logger = nullptr;
  /// Prepended to every published series name ("device.3." turns
  /// pipeline.runs into device.3.pipeline.runs and serve.batches into
  /// device.3.serve.batches). "" keeps the single-device names.
  std::string metrics_prefix;
  /// Shard/device index stamped on flight-recorder events (0 standalone).
  std::uint32_t shard = 0;

  bool enabled() const {
    return metrics != nullptr || tracer != nullptr || recorder != nullptr;
  }

  bool operator==(const Sinks&) const = default;
};

}  // namespace acgpu::telemetry
