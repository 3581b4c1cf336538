// Batched multi-stream matching pipeline (the library's production path).
//
// The paper's kernels assume the text is already resident on the device; at
// production scale the PCIe copy dominates a monolithic launch. MatchPipeline
// splits an arbitrarily large input into batches and runs each through a
// three-stage software pipeline — upload (H2D), compute (kernel), readback
// (D2H) — cycled across N simulated streams (gpusim/stream.h). Each stream
// is one pipeline lane; stages of different batches overlap because the
// upload engine, the compute engine, and the readback engine are independent
// resources:
//
//   upload:   [H2D b0][H2D b1][H2D b2][H2D b3]...
//   compute:          [krn b0][krn b1][krn b2]...
//   readback:                 [D2H b0][D2H b1]...
//
// Staging is a sized buffer pool (pipeline/staging_pool.h), not a fixed
// double-buffer: `pool_depth` upload slices (leased H2D -> kernel end, the
// kernel being the last reader of the staged input) and `readback_depth`
// output buffers (leased kernel end -> D2H end) recycle independently, so a
// batch's upload never waits on a readback it does not depend on. Requested
// streams are clamped to the pool depth — a pool of D buffers can only feed
// D lanes — and the clamp is surfaced (stats.streams_clamped, the
// pipeline.streams_clamped counter, a one-time warning) instead of silently
// degrading.
//
// Readback runs on its own DMA queue by default (`split_readback`, modelled
// by gpusim's dedicated readback engine): the PCIe link is full duplex, so
// an upload and a readback proceed simultaneously and throughput approaches
// the upload-bound limit serial(copy+compute)/max(h2d, kernel, d2h) instead
// of plateauing at the shared-engine bound. The driver still issues each
// batch's D2H after the NEXT batch's H2D + kernel (software-pipelined issue
// order), which keeps the legacy shared-engine mode (split_readback=false)
// from head-of-line-blocking uploads behind readbacks.
//
// Correctness at batch boundaries uses the same X-byte overlap rule as
// ac/chunking.h, one level up: each batch's device slice carries
// max_pattern_length-1 bytes of the next batch, and a match is kept iff its
// START lies in the batch's owned range — so matches spanning a boundary are
// reported exactly once, by the earlier batch.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ac/match.h"
#include "gpusim/metrics.h"
#include "gpusim/stream.h"
#include "kernels/ac_kernel.h"
#include "kernels/pfac_kernel.h"
#include "telemetry/sinks.h"
#include "util/error.h"

namespace acgpu::pipeline {

/// Which device kernel the pipeline drives per batch.
enum class KernelVariant : std::uint8_t { kGlobalOnly, kShared, kPfac };

const char* to_string(KernelVariant variant);

struct PipelineOptions {
  KernelVariant variant = KernelVariant::kShared;
  kernels::StoreScheme scheme = kernels::StoreScheme::kDiagonal;
  kernels::SttPlacement stt_placement = kernels::SttPlacement::kTexture;

  /// Streams (pipeline lanes) to cycle batches across. 1 = no overlap (the
  /// baseline the BENCH_pipeline numbers compare against). Clamped to the
  /// staging-pool depth, with the clamp surfaced (never silent).
  std::uint32_t streams = 2;
  /// Owned input bytes per batch (the device slice adds the overlap carry).
  /// When `rebalance_batches` is set this is a ceiling: high stream counts
  /// shrink the effective batch so every lane stays fed.
  std::uint64_t batch_bytes = 4u << 20;
  /// Upload staging-pool depth in device slice buffers. 0 = 2x streams.
  /// Effective streams = min(streams, pool_depth): a pool of D buffers can
  /// feed at most D lanes (stats.streams_clamped reports the clamp).
  std::uint32_t pool_depth = 0;
  /// Readback staging-pool depth in output buffers. 0 = pool_depth.
  std::uint32_t readback_depth = 0;
  /// Issue D2H copies on a dedicated readback DMA queue (full-duplex PCIe).
  /// false falls back to the GT200 single-copy-queue model, where uploads
  /// and readbacks serialise on one engine — the historical 1.63x plateau.
  bool split_readback = true;
  /// Shrink the effective batch size when the stream count is high enough
  /// that `batch_bytes` would leave lanes idle (target: >= 4 batches per
  /// lane, never below 64 KB or above batch_bytes). Purely a timing
  /// rebalance — matches are exact for any batch size.
  bool rebalance_batches = true;

  /// Per-thread chunk for the AC kernels; 0 derives the smallest legal value
  /// (>= 32, a multiple of 4, larger than the overlap).
  std::uint32_t chunk_bytes = 0;
  std::uint32_t threads_per_block = 256;
  std::uint32_t match_capacity = 64;
  /// PFAC runs one thread per byte, so its record slots are priced per input
  /// byte — keep this small (patterns starting at one position).
  std::uint32_t pfac_match_capacity = 8;

  /// Functional: every block of every batch simulated — matches exact (the
  /// conformance/audit path). Timed: sampled-wave timing per batch — the
  /// throughput path; match collection is skipped.
  gpusim::SimMode mode = gpusim::SimMode::Functional;
  std::uint32_t sample_waves = 3;
  /// Timed mode only: batches with the same slice length reuse the first
  /// batch's simulated kernel time instead of re-sampling it (they are
  /// homogeneous by construction), making 100+-batch sweeps cheap.
  bool reuse_timing = true;
  /// Hazard-audit hook forwarded to every batch launch. When set, per-batch
  /// device buffers are not recycled: the recorder's cross-launch global
  /// shadow would misread a reused match-buffer address as a write race.
  gpusim::AccessObserver* observer = nullptr;
  /// Host-pipeline audit hook (gpusim/host_observer.h): records every stream
  /// op, staging lease, and ordering edge of the run for the hostcheck
  /// happens-before auditor. Orthogonal to `observer` (which audits device
  /// thread interleavings inside one kernel). Null = off, zero cost.
  gpusim::HostObserver* host_observer = nullptr;

  /// Telemetry sinks (telemetry/sinks.h). Null = off, and the hot path
  /// pays one branch per batch. When set, the run publishes gpusim.* and
  /// pipeline.* series under `metrics_prefix`, records host-side spans
  /// (run -> batch -> kernel), stamps batch issue/retire and staging-lease
  /// events with `shard`, and sends the one-time stream-clamp warning to
  /// `logger` (null = the process-global logger).
  telemetry::Sinks telemetry;

  /// Rejects inconsistent combinations (PFAC with a store scheme override,
  /// zero streams, ...). Streams above the pool depth are NOT an error —
  /// they clamp, and the clamp is surfaced in the run's stats/telemetry.
  Status validate() const;
};

/// Per-batch record on the simulated timeline. `stream` and `issue_index`
/// tie the record back to the StreamOp timeline so a run's interleaving is
/// reconstructible (and exportable as a Chrome trace) without re-running;
/// PipelineResult::batches is sorted by (issue_index, index) before return.
struct BatchTrace {
  std::uint64_t index = 0;
  std::uint32_t stream = 0;        ///< stream the batch's ops were issued on
  std::uint64_t issue_index = 0;   ///< timeline op id of the batch's H2D
  std::uint64_t owned_bytes = 0;   ///< bytes this batch reports matches for
  std::uint64_t staged_bytes = 0;  ///< H2D payload (owned + overlap carry)
  std::uint64_t output_bytes = 0;  ///< D2H payload (counts + match records)
  double submit_seconds = 0;       ///< H2D start (after any backpressure wait)
  double complete_seconds = 0;     ///< D2H end
  double kernel_seconds = 0;
  double blocked_seconds = 0;  ///< time the submit waited for an upload buffer
  double readback_wait_seconds = 0;  ///< time the D2H waited for a readback buffer
  std::uint32_t queue_depth = 0;  ///< in-flight batches at submit (incl. this)
};

struct PipelineStats {
  std::uint64_t batches = 0;
  std::uint64_t input_bytes = 0;   ///< text length
  std::uint64_t staged_bytes = 0;  ///< total H2D payload (incl. overlap carry)
  std::uint64_t output_bytes = 0;  ///< total D2H payload
  double makespan_seconds = 0;     ///< simulated end-to-end (copy + compute)
  double copy_busy_seconds = 0;    ///< all transfers (both directions)
  double h2d_busy_seconds = 0;     ///< upload stage busy time
  double d2h_busy_seconds = 0;     ///< readback stage busy time
  double compute_busy_seconds = 0;
  double overlap_seconds = 0;  ///< both engine classes busy simultaneously
  double overlap_ratio = 0;    ///< overlap / min(copy, compute) busy time
  double blocked_seconds = 0;  ///< total upload-buffer backpressure wait
  double readback_wait_seconds = 0;  ///< total readback-buffer wait
  std::uint32_t max_queue_depth = 0;

  /// Resolved staging geometry for the run — what actually executed, after
  /// pool-depth defaults, the stream clamp, and batch rebalancing.
  std::uint32_t effective_streams = 0;
  std::uint32_t pool_depth = 0;      ///< upload staging buffers
  std::uint32_t readback_depth = 0;  ///< readback staging buffers
  std::uint64_t effective_batch_bytes = 0;
  bool streams_clamped = false;  ///< requested streams exceeded the pool depth
  double latency_p50_seconds = 0;  ///< per-batch submit -> D2H-complete
  double latency_p90_seconds = 0;
  double latency_p99_seconds = 0;

  /// End-to-end matching throughput in Gbit/s of input scanned.
  double throughput_gbps() const {
    return makespan_seconds > 0
               ? static_cast<double>(input_bytes) * 8.0 / makespan_seconds / 1e9
               : 0.0;
  }
};

struct PipelineResult {
  /// Global-offset matches, sorted (end, pattern), exactly-once across batch
  /// boundaries. Complete only in Functional mode.
  std::vector<ac::Match> matches;
  std::uint64_t total_reported = 0;
  bool overflowed = false;  ///< some per-thread match slot overflowed
  /// Kernel counters summed over every simulated batch launch (batches that
  /// reuse a cached Timed duration contribute nothing — their kernel was
  /// never re-simulated).
  gpusim::Metrics metrics;
  PipelineStats stats;
  std::vector<BatchTrace> batches;
  /// The resolved stream timeline (H2D/kernel/D2H ops) — report/figure input.
  std::vector<gpusim::StreamOp> timeline;
};

/// Drives one device automaton over arbitrarily many inputs. The automaton
/// (and the DeviceMemory it lives in) must outlive the pipeline; each run()
/// allocates its slot buffers on top and recycles them per batch.
class MatchPipeline {
 public:
  /// AC-DFA pipeline (variant kGlobalOnly or kShared).
  MatchPipeline(const gpusim::GpuConfig& config, gpusim::DeviceMemory& mem,
                const kernels::DeviceDfa& ddfa, PipelineOptions options);
  /// PFAC pipeline (variant kPfac).
  MatchPipeline(const gpusim::GpuConfig& config, gpusim::DeviceMemory& mem,
                const kernels::DevicePfac& dpfac, PipelineOptions options);

  const PipelineOptions& options() const { return options_; }

  /// Matches `text` through the batched multi-stream pipeline. An empty text
  /// succeeds with an empty result. Fails (no throw) on inconsistent options
  /// or a device-memory budget too small for the slot buffers.
  Result<PipelineResult> run(std::string_view text);

 private:
  gpusim::GpuConfig config_;  // by value: pipelines outlive caller temporaries
  gpusim::DeviceMemory& mem_;
  const kernels::DeviceDfa* ddfa_ = nullptr;
  const kernels::DevicePfac* dpfac_ = nullptr;
  PipelineOptions options_;
};

}  // namespace acgpu::pipeline
