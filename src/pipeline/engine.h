// acgpu::Engine — the library's supported entry point.
//
// Wraps the full compile -> stage -> match -> collect sequence behind one
// object: build it from a pattern set (EngineOptions picks the kernel
// variant, store scheme, stream count, and batch size), then scan() any
// number of inputs through the batched multi-stream pipeline
// (pipeline/pipeline.h). The raw kernel-launch entry points
// (kernels::run_ac_kernel and friends) remain available for harness/ablation
// code but are internal API — see the migration notes in README.md.
//
// Ownership: an Engine is a lightweight automaton + pipeline bound to an
// acgpu::Device (pipeline/device.h), which owns the simulated GPU — its
// memory arena, identity, observer seam, and the scan mutex serializing the
// engines that share it:
//
//   auto device = acgpu::Device::create();
//   auto engine = acgpu::Engine::create(device.value(),
//                                       ac::PatternSet({"he", "she"}));
//   auto scan = engine.value().scan(text);
//   for (ac::Match m : scan.value().matches) { ... }
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "ac/dfa.h"
#include "ac/pattern_set.h"
#include "ac/pfac.h"
#include "gpusim/config.h"
#include "gpusim/device_memory.h"
#include "kernels/device_dfa.h"
#include "kernels/pfac_kernel.h"
#include "pipeline/device.h"
#include "pipeline/pipeline.h"
#include "telemetry/sinks.h"
#include "util/error.h"

namespace acgpu {

struct EngineOptions {
  /// Device kernel: the paper's shared-memory kernel (default), the
  /// global-memory ablation, or PFAC.
  pipeline::KernelVariant variant = pipeline::KernelVariant::kShared;
  /// Shared-memory store scheme (kShared only); the diagonal scheme is the
  /// paper's bank-conflict-free layout.
  kernels::StoreScheme scheme = kernels::StoreScheme::kDiagonal;
  kernels::SttPlacement stt_placement = kernels::SttPlacement::kTexture;

  /// Streams the pipeline cycles batches across (>= 2 overlaps copy with
  /// compute; 1 is the serial-staging baseline). Clamped to the staging
  /// pool depth — never silently: see pipeline.streams_clamped.
  std::uint32_t streams = 2;
  /// Owned input bytes per pipeline batch (a ceiling — high stream counts
  /// shrink the effective batch so every lane stays fed).
  std::uint64_t batch_bytes = 4u << 20;
  /// Upload staging-pool depth in slice buffers; 0 = 2x streams.
  std::uint32_t pool_depth = 0;
  /// Readback staging-pool depth in output buffers; 0 = pool_depth.
  std::uint32_t readback_depth = 0;
  /// Issue D2H copies on a dedicated readback DMA queue (full-duplex PCIe).
  /// false = the GT200 single-copy-queue model, where uploads and readbacks
  /// serialize on one engine.
  bool split_readback = true;

  /// Functional simulates every block (exact matches — the default);
  /// Timed samples waves for throughput studies and skips match collection.
  gpusim::SimMode mode = gpusim::SimMode::Functional;

  /// Simulated device and its memory budget for the facades that create
  /// their own Device (serve::StreamService without a device,
  /// dispatch::DispatchEngine, cluster::Router's shards). Engine::create
  /// ignores them — the Device it binds to carries its own config.
  gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();
  std::size_t device_memory_bytes = 256u << 20;

  /// Advanced knobs (0 = derive): per-thread chunk for the AC kernels.
  std::uint32_t chunk_bytes = 0;
  std::uint32_t threads_per_block = 256;
  std::uint32_t match_capacity = 64;

  /// Telemetry sinks (telemetry/sinks.h), handed unchanged to the pipeline;
  /// zero-cost when left defaulted (off). When set, every scan publishes
  /// gpusim.*/pipeline.* series and records engine.scan -> pipeline.run ->
  /// pipeline.batch -> kernel.simulate spans; pipeline/telemetry_export.h
  /// turns the result + tracer into a Chrome trace, and
  /// examples/acgpu_prof.cpp is the ready-made frontend. Host-pipeline audit
  /// records go to the bound Device's observer (DeviceOptions::host_observer).
  telemetry::Sinks telemetry;
};

/// One scan's output: global-offset matches plus the pipeline's simulated
/// timing story (see pipeline::PipelineResult).
using ScanResult = pipeline::PipelineResult;

class Engine {
 public:
  /// Compiles `patterns` and uploads the automaton to `device`. The device
  /// must outlive the engine; engines sharing it serialize their scans on
  /// its scan mutex. Fails (no throw) on an empty pattern set, inconsistent
  /// options, or a device-memory budget too small for the automaton.
  static Result<Engine> create(Device& device, const ac::PatternSet& patterns,
                               const EngineOptions& options = {});

  /// Builds the engine from a precompiled automaton (e.g. loaded from the
  /// binary .acdfa format) when the original pattern set is gone. PFAC
  /// rebuilds its automaton from the patterns, so variant kPfac fails.
  static Result<Engine> create(Device& device, ac::Dfa dfa,
                               const EngineOptions& options = {});

  /// Matches `text` through the batched multi-stream pipeline. Safe to call
  /// repeatedly and from any thread — scans serialize on the device's scan
  /// mutex. Fails kUnavailable when the device is marked failed.
  Result<ScanResult> scan(std::string_view text);

  const EngineOptions& options() const { return options_; }
  const ac::Dfa& dfa() const { return *dfa_; }
  std::size_t pattern_count() const { return dfa_->pattern_count(); }

  /// Process-unique engine id (never reused, monotonically increasing
  /// across all devices) — disambiguates per-engine records in traces and
  /// hostcheck reports in a multi-engine process.
  std::uint32_t id() const { return id_; }

  /// The device the engine is bound to. Stable for the engine's lifetime.
  Device& device() { return *device_; }
  const Device& device() const { return *device_; }

  /// The bound device's memory — kept for harness code that co-locates
  /// extra buffers or inspects allocation.
  gpusim::DeviceMemory& device_memory() { return device_->memory(); }

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;

 private:
  Engine() = default;

  static Result<Engine> build(Device& device, const ac::PatternSet* patterns,
                              ac::Dfa* dfa, const EngineOptions& options);

  EngineOptions options_;
  std::uint32_t id_ = 0;
  Device* device_ = nullptr;  ///< bound device (never null once built)
  ac::PatternSet patterns_;
  // unique_ptrs keep the Engine movable: DeviceDfa/DevicePfac hold references
  // into the device arena and dfa_/pfac_, which must stay at stable addresses.
  std::unique_ptr<ac::Dfa> dfa_;
  std::unique_ptr<ac::PfacAutomaton> pfac_;
  std::unique_ptr<kernels::DeviceDfa> ddfa_;
  std::unique_ptr<kernels::DevicePfac> dpfac_;
  std::unique_ptr<pipeline::MatchPipeline> pipeline_;
};

}  // namespace acgpu
