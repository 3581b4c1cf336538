#include "pipeline/pipeline.h"

#include <algorithm>
#include <map>
#include <optional>

#include "pipeline/staging_pool.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/logger.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"
#include "util/stats.h"

namespace acgpu::pipeline {

const char* to_string(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kGlobalOnly: return "global-only";
    case KernelVariant::kShared: return "shared";
    case KernelVariant::kPfac: return "pfac";
  }
  return "?";
}

Status PipelineOptions::validate() const {
  if (streams == 0) return Status::invalid_argument("streams must be >= 1");
  if (batch_bytes == 0) return Status::invalid_argument("batch_bytes must be >= 1");
  if (chunk_bytes != 0 && chunk_bytes % 4 != 0)
    return Status::invalid_argument("chunk_bytes must be a multiple of 4");
  if (threads_per_block == 0 || threads_per_block % 32 != 0)
    return Status::invalid_argument("threads_per_block must be a positive multiple of 32");
  if (variant == KernelVariant::kPfac && scheme != kernels::StoreScheme::kDiagonal)
    return Status::invalid_argument(
        "store scheme does not apply to the PFAC kernel (leave it defaulted)");
  return Status::ok();
}

namespace {

/// Resolved staging-layer geometry: pool depths, the stream clamp, and the
/// rebalanced batch size (PipelineStats mirrors these for the run).
struct StagingPlan {
  std::uint32_t pool_depth = 0;
  std::uint32_t readback_depth = 0;
  std::uint32_t effective_streams = 0;
  std::uint64_t batch_bytes = 0;
  bool streams_clamped = false;
};

/// rebalance_batches floor: batches never shrink below this (nor below the
/// configured batch_bytes when that is already smaller).
constexpr std::uint64_t kAutoBatchFloor = 64u << 10;
/// rebalance_batches target: keep every lane at least this many batches deep.
constexpr std::uint64_t kBatchesPerLane = 4;

StagingPlan resolve_staging(const PipelineOptions& opt, std::uint64_t text_len) {
  StagingPlan plan;
  plan.pool_depth = opt.pool_depth != 0 ? opt.pool_depth : 2 * opt.streams;
  plan.effective_streams = std::min(opt.streams, plan.pool_depth);
  plan.streams_clamped = plan.effective_streams < opt.streams;
  plan.readback_depth =
      opt.readback_depth != 0 ? opt.readback_depth : plan.pool_depth;

  plan.batch_bytes = opt.batch_bytes;
  if (opt.rebalance_batches && text_len > 0) {
    const std::uint64_t lanes = plan.effective_streams;
    const std::uint64_t target = (text_len + kBatchesPerLane * lanes - 1) /
                                 (kBatchesPerLane * lanes);
    if (target < plan.batch_bytes)
      plan.batch_bytes =
          std::max(target, std::min<std::uint64_t>(plan.batch_bytes, kAutoBatchFloor));
  }
  return plan;
}

/// Stream-clamp warning, routed through the telemetry logger: the
/// process-global logger emits once per process (its keys never re-arm); a
/// caller-provided logger applies its own rate limit. Every occurrence still
/// counts into pipeline.streams_clamped and the run's stats.
void warn_streams_clamped(telemetry::Logger* logger, std::uint32_t requested,
                          std::uint32_t pool_depth, std::uint32_t effective) {
  telemetry::Logger& log =
      logger != nullptr ? *logger : telemetry::Logger::global();
  log.warn("pipeline.streams_clamped",
           "requested " + std::to_string(requested) +
               " streams exceed the staging pool depth " +
               std::to_string(pool_depth) + "; running " +
               std::to_string(effective) +
               " stream(s). Raise PipelineOptions::pool_depth (or leave it "
               "0 = 2x streams) to feed every lane. (see "
               "pipeline.streams_clamped)");
}

struct BatchGeometry {
  std::uint32_t overlap = 0;      ///< max_pattern_length - 1 carry bytes
  std::uint32_t chunk_bytes = 0;  ///< AC kernels only
  std::uint32_t threads_per_block = 0;
  std::uint64_t slice_cap = 0;  ///< largest device slice (owned + overlap)
};

/// Derives chunk/block geometry, shrinking the block when the shared-memory
/// staging region would not fit the SM.
Result<BatchGeometry> resolve_geometry(const PipelineOptions& opt,
                                       std::uint64_t batch_bytes,
                                       const gpusim::GpuConfig& config,
                                       std::uint32_t max_pattern_length,
                                       std::uint64_t text_len) {
  BatchGeometry g;
  g.overlap = max_pattern_length > 0 ? max_pattern_length - 1 : 0;
  g.threads_per_block = opt.threads_per_block;
  g.slice_cap = std::min<std::uint64_t>(batch_bytes, text_len) + g.overlap;

  if (opt.variant == KernelVariant::kPfac) return g;

  g.chunk_bytes = opt.chunk_bytes != 0
                      ? opt.chunk_bytes
                      : std::max<std::uint32_t>(32, (g.overlap + 4) & ~3u);
  if (g.overlap >= g.chunk_bytes)
    return Status::invalid_argument(
        "chunk_bytes " + std::to_string(g.chunk_bytes) +
        " too small for max pattern length " + std::to_string(max_pattern_length));
  if (opt.variant == KernelVariant::kShared) {
    // Staging needs (T+1) chunk-sized regions of the SM's shared memory.
    while (g.threads_per_block > 32 &&
           (g.threads_per_block + 1) * g.chunk_bytes > config.shared_mem_bytes)
      g.threads_per_block -= 32;
    if ((g.threads_per_block + 1) * g.chunk_bytes > config.shared_mem_bytes)
      return Status::capacity_exceeded(
          "staged block for chunk_bytes " + std::to_string(g.chunk_bytes) +
          " exceeds shared memory even at 32 threads/block");
  }
  return g;
}

/// Timed-mode timing reuse: batches are homogeneous by construction, so one
/// simulated launch per distinct slice length covers the rest.
struct CachedTiming {
  double kernel_seconds = 0;
  std::uint64_t output_bytes = 0;
};

constexpr double kSimNs = 1e9;  ///< simulated seconds -> nanoseconds

/// Publishes the run into the registry: the summed kernel counters under
/// gpusim.*, run aggregates under pipeline.*, per-batch and per-op
/// distributions under pipeline.batch.* / pipeline.op.*.
void publish_run(const PipelineResult& result, telemetry::MetricsRegistry& reg,
                 const std::string& prefix) {
  gpusim::publish(result.metrics, reg, prefix + "gpusim");

  // Series names carry the caller's prefix so N devices publishing into one
  // registry stay apart ("device.3.pipeline.runs" vs "pipeline.runs").
  const auto name = [&](const char* series) { return prefix + series; };
  const PipelineStats& s = result.stats;
  reg.counter(name("pipeline.runs")).add(1);
  reg.counter(name("pipeline.batches")).add(s.batches);
  reg.counter(name("pipeline.input_bytes")).add(s.input_bytes);
  reg.counter(name("pipeline.staged_bytes")).add(s.staged_bytes);
  reg.counter(name("pipeline.output_bytes")).add(s.output_bytes);
  reg.counter(name("pipeline.matches_reported")).add(result.total_reported);
  reg.gauge(name("pipeline.overlap_ratio")).set(s.overlap_ratio);
  reg.gauge(name("pipeline.throughput_gbps")).set(s.throughput_gbps());
  reg.gauge(name("pipeline.makespan_seconds")).set(s.makespan_seconds);
  reg.gauge(name("pipeline.copy_busy_seconds")).set(s.copy_busy_seconds);
  reg.gauge(name("pipeline.h2d_busy_seconds")).set(s.h2d_busy_seconds);
  reg.gauge(name("pipeline.d2h_busy_seconds")).set(s.d2h_busy_seconds);
  reg.gauge(name("pipeline.compute_busy_seconds")).set(s.compute_busy_seconds);
  reg.gauge(name("pipeline.overlap_seconds")).set(s.overlap_seconds);
  reg.gauge(name("pipeline.blocked_seconds")).set(s.blocked_seconds);
  reg.gauge(name("pipeline.readback_wait_seconds")).set(s.readback_wait_seconds);
  reg.gauge(name("pipeline.max_queue_depth")).set_max(s.max_queue_depth);
  reg.gauge(name("pipeline.pool_depth")).set(s.pool_depth);
  reg.gauge(name("pipeline.readback_depth")).set(s.readback_depth);
  reg.gauge(name("pipeline.effective_streams")).set(s.effective_streams);
  reg.gauge(name("pipeline.effective_batch_bytes")).set(
      static_cast<double>(s.effective_batch_bytes));
  if (s.streams_clamped) reg.counter(name("pipeline.streams_clamped")).add(1);

  telemetry::Histogram& latency = reg.histogram(name("pipeline.batch.latency_ns"));
  telemetry::Histogram& blocked = reg.histogram(name("pipeline.batch.blocked_ns"));
  telemetry::Histogram& rb_wait = reg.histogram(name("pipeline.batch.readback_wait_ns"));
  telemetry::Histogram& depth = reg.histogram(name("pipeline.batch.queue_depth"));
  for (const BatchTrace& t : result.batches) {
    latency.observe((t.complete_seconds - t.submit_seconds) * kSimNs);
    blocked.observe(t.blocked_seconds * kSimNs);
    rb_wait.observe(t.readback_wait_seconds * kSimNs);
    depth.observe(t.queue_depth);
  }

  telemetry::Histogram& h2d = reg.histogram(name("pipeline.batch.h2d_ns"));
  telemetry::Histogram& kernel = reg.histogram(name("pipeline.batch.kernel_ns"));
  telemetry::Histogram& d2h = reg.histogram(name("pipeline.batch.d2h_ns"));
  for (const gpusim::StreamOp& op : result.timeline) {
    const double ns = (op.end - op.start) * kSimNs;
    switch (op.kind) {
      case gpusim::StreamOpKind::kH2D: h2d.observe(ns); break;
      case gpusim::StreamOpKind::kKernel: kernel.observe(ns); break;
      case gpusim::StreamOpKind::kD2H: d2h.observe(ns); break;
    }
  }
}

}  // namespace

MatchPipeline::MatchPipeline(const gpusim::GpuConfig& config,
                             gpusim::DeviceMemory& mem,
                             const kernels::DeviceDfa& ddfa, PipelineOptions options)
    : config_(config), mem_(mem), ddfa_(&ddfa), options_(std::move(options)) {}

MatchPipeline::MatchPipeline(const gpusim::GpuConfig& config,
                             gpusim::DeviceMemory& mem,
                             const kernels::DevicePfac& dpfac, PipelineOptions options)
    : config_(config), mem_(mem), dpfac_(&dpfac), options_(std::move(options)) {}

Result<PipelineResult> MatchPipeline::run(std::string_view text) {
  const PipelineOptions& opt = options_;
  if (Status s = opt.validate(); !s) return s;
  if (opt.variant == KernelVariant::kPfac) {
    if (dpfac_ == nullptr)
      return Status::invalid_argument("PFAC variant needs a DevicePfac pipeline");
  } else if (ddfa_ == nullptr) {
    return Status::invalid_argument("AC variants need a DeviceDfa pipeline");
  }

  PipelineResult result;
  if (text.empty()) return result;

  const telemetry::Sinks& sinks = opt.telemetry;
  ACGPU_TRACE_SPAN(sinks.tracer, "pipeline.run");

  const std::uint32_t max_len = opt.variant == KernelVariant::kPfac
                                    ? dpfac_->max_pattern_length()
                                    : ddfa_->max_pattern_length();
  const StagingPlan plan = resolve_staging(opt, text.size());
  if (plan.streams_clamped)
    warn_streams_clamped(sinks.logger, opt.streams, plan.pool_depth,
                         plan.effective_streams);

  Result<BatchGeometry> geo =
      resolve_geometry(opt, plan.batch_bytes, config_, max_len, text.size());
  if (!geo) return geo.status();
  const BatchGeometry g = geo.value();

  const std::uint64_t batch_count =
      (text.size() + plan.batch_bytes - 1) / plan.batch_bytes;

  try {
    // split_readback gives the device a dedicated D2H queue (the PCIe link
    // is full duplex). The sim keeps a reference to its config, so the
    // adjusted copy must outlive it.
    gpusim::GpuConfig run_cfg = config_;
    if (opt.split_readback && run_cfg.readback_engines == 0)
      run_cfg.readback_engines = 1;
    gpusim::StreamSim sim(run_cfg, mem_);
    sim.set_host_observer(opt.host_observer);
    for (std::uint32_t s = 0; s < plan.effective_streams; ++s) sim.create_stream();

    // Staging pools, allocated below batch_mark so per-batch recycling never
    // frees them. Upload slices carry 8 pad bytes (word-granular staging
    // loads never run off the slice); readback leases are 0-byte accounting
    // entries — the kernel launches allocate the real output buffers.
    const std::size_t outer_mark = mem_.mark();
    StagingPool::Options upload_opt{plan.pool_depth, g.slice_cap, 8, false};
    upload_opt.observer = opt.host_observer;
    upload_opt.name = "upload";
    upload_opt.sim = sim.sim_id();
    StagingPool::Options readback_opt{plan.readback_depth, 0, 0, false};
    readback_opt.observer = opt.host_observer;
    readback_opt.name = "readback";
    readback_opt.sim = sim.sim_id();
    StagingPool upload(mem_, upload_opt);
    StagingPool readback(mem_, readback_opt);
    const std::size_t batch_mark = mem_.mark();

    std::vector<double> completion;  // per batch: D2H end on the timeline
    completion.reserve(batch_count);
    std::map<std::uint64_t, CachedTiming> timing_cache;  // keyed by slice bytes
    Samples latencies;

    // The copy engine serves its queue in issue order, so issuing d2h(b)
    // right behind kernel(b) head-of-line-blocks h2d(b+1) behind a copy that
    // cannot start until the kernel ends — false serialization, no overlap.
    // Standard remedy on single-copy-queue devices: software-pipelined issue
    // order. Each batch's D2H is held back one iteration and enqueued after
    // the NEXT batch's H2D + kernel.
    struct PendingD2H {
      BatchTrace trace;
      gpusim::StreamId stream = 0;
    };
    std::optional<PendingD2H> pending;
    const auto flush_pending = [&]() {
      if (!pending) return;
      BatchTrace& t = pending->trace;
      // Readback staging lease: held from here (the batch's kernel has long
      // ended) to D2H end, recycled independently of the upload pool.
      const StagingPool::Lease rb = readback.try_acquire().value();
      if (sinks.recorder != nullptr)
        sinks.recorder->record(telemetry::FlightEventKind::kLeaseGrant,
                               sinks.shard, rb.index, 0, /*code=*/1);
      t.readback_wait_seconds =
          std::max(0.0, rb.ready - sim.stream_ready(pending->stream));
      sim.wait_until(pending->stream, rb.ready);
      const std::uint64_t d2h_id = sim.charge_d2h(
          pending->stream, t.output_bytes, "d2h b" + std::to_string(t.index));
      t.complete_seconds = sim.op_end(d2h_id);
      readback.release(rb.index, t.complete_seconds);
      if (sinks.recorder != nullptr) {
        sinks.recorder->record(telemetry::FlightEventKind::kLeaseRelease,
                               sinks.shard, rb.index, 0, /*code=*/1);
        sinks.recorder->record(telemetry::FlightEventKind::kBatchRetire,
                               sinks.shard, t.index, t.output_bytes);
      }
      completion.push_back(t.complete_seconds);
      t.queue_depth = 1;
      for (std::uint64_t j = 0; j < t.index; ++j)
        if (completion[j] > t.submit_seconds) ++t.queue_depth;
      latencies.add(t.complete_seconds - t.submit_seconds);

      result.stats.staged_bytes += t.staged_bytes;
      result.stats.output_bytes += t.output_bytes;
      result.stats.blocked_seconds += t.blocked_seconds;
      result.stats.readback_wait_seconds += t.readback_wait_seconds;
      result.stats.max_queue_depth =
          std::max(result.stats.max_queue_depth, t.queue_depth);
      result.batches.push_back(t);
      pending.reset();
    };

    const ac::Dfa* dfa = ddfa_ != nullptr ? &ddfa_->host_dfa() : nullptr;
    const ac::PfacAutomaton* pfac =
        dpfac_ != nullptr ? &dpfac_->host_automaton() : nullptr;

    for (std::uint64_t b = 0; b < batch_count; ++b) {
      const std::uint64_t base = b * plan.batch_bytes;
      const std::uint64_t owned =
          std::min<std::uint64_t>(plan.batch_bytes, text.size() - base);
      const std::uint64_t slice = std::min<std::uint64_t>(owned + g.overlap, text.size() - base);
      const gpusim::StreamId stream =
          static_cast<gpusim::StreamId>(b % plan.effective_streams);

      ACGPU_TRACE_SPAN(sinks.tracer, "pipeline.batch");
      BatchTrace trace;
      trace.index = b;
      trace.stream = stream;
      trace.owned_bytes = owned;
      trace.staged_bytes = slice;

      // Upload staging lease: held from H2D start to KERNEL end (the kernel
      // is the last reader of the staged slice), so this batch never waits
      // on a readback it does not depend on. The pool hands back the buffer
      // that drains earliest; any wait is genuine upload backpressure. The
      // single-threaded driver releases every lease within its iteration,
      // so the pool cannot be exhausted here (value() is safe).
      const StagingPool::Lease up = upload.try_acquire().value();
      if (sinks.recorder != nullptr) {
        sinks.recorder->record(telemetry::FlightEventKind::kLeaseGrant,
                               sinks.shard, up.index, 0, /*code=*/0);
        sinks.recorder->record(telemetry::FlightEventKind::kBatchIssue,
                               sinks.shard, b, slice);
      }
      const gpusim::DevAddr dst = up.addr;
      trace.blocked_seconds = std::max(0.0, up.ready - sim.stream_ready(stream));
      sim.wait_until(stream, up.ready);

      const std::uint64_t h2d_id =
          sim.memcpy_h2d(stream, dst, text.data() + base, slice, "h2d b" + std::to_string(b));
      mem_.fill(dst + slice, 0, 8);
      trace.submit_seconds = sim.timeline()[h2d_id].start;
      trace.issue_index = h2d_id;

      // One kernel launch over the slice. Timed runs may reuse the simulated
      // duration of an earlier same-length batch.
      const bool reuse = opt.mode == gpusim::SimMode::Timed && opt.reuse_timing;
      const auto cached = reuse ? timing_cache.find(slice) : timing_cache.end();
      if (cached != timing_cache.end()) {
        const std::uint64_t kid =
            sim.charge_kernel(stream, cached->second.kernel_seconds,
                              "kernel b" + std::to_string(b) + " (reused timing)");
        sim.annotate(kid, dst, slice, /*is_write=*/false);
        trace.kernel_seconds = cached->second.kernel_seconds;
        trace.output_bytes = cached->second.output_bytes;
      } else {
        // Recycle the previous batch's match buffer — unless an access
        // observer is attached, whose cross-launch global-write shadow would
        // misread address reuse as a race.
        ACGPU_TRACE_SPAN(sinks.tracer, "kernel.simulate");
        if (opt.observer == nullptr) mem_.release(batch_mark);

        gpusim::LaunchOptions sim_opt;
        sim_opt.mode = opt.mode;
        sim_opt.sample_waves = opt.sample_waves;
        sim_opt.observer = opt.observer;

        double scale = 1.0;
        std::uint64_t threads = 0, reported = 0;
        if (opt.variant == KernelVariant::kPfac) {
          kernels::PfacLaunchSpec spec;
          spec.threads_per_block = g.threads_per_block;
          spec.match_capacity = opt.pfac_match_capacity;
          spec.sim = sim_opt;
          kernels::PfacLaunchOutcome out = kernels::run_pfac_kernel_stream(
              sim, stream, *dpfac_, dst, slice, spec, "kernel b" + std::to_string(b));
          trace.kernel_seconds = out.sim.seconds;
          scale = out.sim.scale();
          threads = out.threads;
          reported = out.matches.total_reported;
          result.overflowed |= out.matches.overflowed;
          result.metrics += out.sim.metrics;
          if (opt.mode == gpusim::SimMode::Functional)
            for (const ac::Match& m : out.matches.matches) {
              const std::uint64_t start = m.end + 1 - pfac->pattern_length(m.pattern);
              if (start < owned) result.matches.push_back(ac::Match{base + m.end, m.pattern});
            }
        } else {
          kernels::AcLaunchSpec spec;
          spec.approach = opt.variant == KernelVariant::kGlobalOnly
                              ? kernels::Approach::kGlobalOnly
                              : kernels::Approach::kShared;
          spec.scheme = opt.scheme;
          spec.chunk_bytes = g.chunk_bytes;
          spec.threads_per_block = g.threads_per_block;
          spec.match_capacity = opt.match_capacity;
          spec.stt_placement = opt.stt_placement;
          spec.sim = sim_opt;
          kernels::AcLaunchOutcome out = kernels::run_ac_kernel_stream(
              sim, stream, *ddfa_, dst, slice, spec, "kernel b" + std::to_string(b));
          trace.kernel_seconds = out.sim.seconds;
          scale = out.sim.scale();
          threads = out.threads;
          reported = out.matches.total_reported;
          result.overflowed |= out.matches.overflowed;
          result.metrics += out.sim.metrics;
          if (opt.mode == gpusim::SimMode::Functional)
            for (const ac::Match& m : out.matches.matches) {
              const std::uint64_t start = m.end + 1 - dfa->pattern_length(m.pattern);
              if (start < owned) result.matches.push_back(ac::Match{base + m.end, m.pattern});
            }
        }
        // The stream runners enqueue exactly one kernel op — annotate it as
        // the last reader of the staged slice for the hostcheck auditor.
        sim.annotate(sim.timeline().back().id, dst, slice, /*is_write=*/false);
        result.total_reported += reported;
        // D2H payload: the per-thread count array plus the (extrapolated in
        // Timed mode) match records.
        trace.output_bytes =
            threads * 4 +
            static_cast<std::uint64_t>(static_cast<double>(reported) * scale) * 8;
        if (reuse) timing_cache[slice] = {trace.kernel_seconds, trace.output_bytes};
      }

      // The kernel was the last reader of the staged slice: the upload
      // buffer recycles at kernel end, not D2H end — what lets a deep pool
      // keep feeding lanes while readbacks drain.
      upload.release(up.index, sim.stream_ready(stream));
      if (sinks.recorder != nullptr)
        sinks.recorder->record(telemetry::FlightEventKind::kLeaseRelease,
                               sinks.shard, up.index, 0, /*code=*/0);

      // Issue the PREVIOUS batch's D2H now that this batch's H2D and kernel
      // are in the copy/compute queues, then hold this one back in turn.
      flush_pending();
      pending = PendingD2H{trace, stream};
    }
    flush_pending();

    const gpusim::OverlapStats ov = sim.overlap();
    result.stats.batches = batch_count;
    result.stats.input_bytes = text.size();
    result.stats.makespan_seconds = ov.makespan;
    result.stats.copy_busy_seconds = ov.copy_busy;
    result.stats.h2d_busy_seconds = ov.h2d_busy;
    result.stats.d2h_busy_seconds = ov.d2h_busy;
    result.stats.compute_busy_seconds = ov.compute_busy;
    result.stats.overlap_seconds = ov.overlapped;
    result.stats.overlap_ratio = ov.overlap_ratio();
    result.stats.effective_streams = plan.effective_streams;
    result.stats.pool_depth = plan.pool_depth;
    result.stats.readback_depth = plan.readback_depth;
    result.stats.effective_batch_bytes = plan.batch_bytes;
    result.stats.streams_clamped = plan.streams_clamped;
    result.stats.latency_p50_seconds = latencies.percentile(50);
    result.stats.latency_p90_seconds = latencies.percentile(90);
    result.stats.latency_p99_seconds = latencies.percentile(99);
    result.timeline = sim.timeline();

    if (opt.observer == nullptr) mem_.release(outer_mark);
  } catch (const std::exception& e) {
    return Status::from_exception(e);
  }

  std::sort(result.matches.begin(), result.matches.end());
  // Deterministic export order: flush order equals issue order today, but
  // consumers (trace export, reports) must not depend on that accident.
  std::sort(result.batches.begin(), result.batches.end(),
            [](const BatchTrace& a, const BatchTrace& b) {
              if (a.issue_index != b.issue_index) return a.issue_index < b.issue_index;
              return a.index < b.index;
            });
  if (sinks.metrics != nullptr)
    publish_run(result, *sinks.metrics, sinks.metrics_prefix);
  return result;
}

}  // namespace acgpu::pipeline
