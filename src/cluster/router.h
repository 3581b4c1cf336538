// cluster::Router — multi-device sharding: a scatter/gather tier over N
// independent simulated devices.
//
// The ROADMAP's top open item, and the simulated equivalent of the
// MPI-sharded multi-GPU deployments in the related work: one process stands
// up N acgpu::Devices, each carrying its own automaton upload, StreamService
// shard, and bulk Engine, and the Router in front partitions traffic across
// them:
//
//                          Router ("cluster.router.mu")
//            ┌──────────────┬──┴───────────┬──────────────┐
//        shard 0        shard 1        shard 2         shard 3
//      Device 0        Device 1       Device 2        Device 3
//      ├ StreamService ├ StreamService ├ StreamService ├ StreamService
//      └ bulk Engine   └ bulk Engine   └ bulk Engine   └ bulk Engine
//
// Two traffic paths:
//
//  - Session path (open/feed/poll/close): each session is assigned a home
//    shard at open() — least-loaded healthy shard, deterministic tie-break —
//    and all its chunks flow there, so carried boundary state never crosses
//    devices. Session ids are globally unique AND deterministic: shard k
//    namespaces its ids at (k+1)<<48 (serve::ServeOptions::
//    session_id_namespace), so the n-th open on shard k is the same id in
//    every run.
//
//  - Bulk scatter/gather path (scan): the text is slab-partitioned across
//    the healthy devices, each slab carrying max_pattern_length-1 overlap
//    bytes of its successor; a device keeps a match iff its START lies in
//    the owned slab (exactly-once across seams, the same rule the pipeline
//    uses at batch boundaries), and per-device streams are k-way-merged
//    back into global-offset order (cluster/merge.h). The cluster makespan
//    is max over devices of the per-device simulated makespan — devices are
//    independent simulators running concurrently in wall-clock.
//
// Failure model — fail-stop-with-drain (docs/CLUSTER.md): mark_failed(k)
// flags the device (new scans on it fail kUnavailable; in-flight queued
// chunks drain through the serve layer's exact host-DFA fallback, so no
// accepted byte is ever dropped), then every session homed on shard k is
// migrated — export_session -> import_session, preserving id, carried
// state, stats, and unpolled matches — onto the least-loaded healthy
// shards. Zero matches lost, zero duplicated: the soak and conformance
// suites assert byte-identical output with failures injected mid-stream.
// drain_shard(k) is the graceful variant (scans finish on the device, the
// shard just stops taking new sessions); restore(k) readmits a shard.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/engine.h"
#include "serve/service.h"
#include "telemetry/health.h"
#include "util/error.h"

namespace acgpu::cluster {

struct ClusterOptions {
  /// Shard count = independent simulated devices (>= 1).
  std::uint32_t devices = 2;

  /// Per-shard engine template. Its gpu/device_memory_bytes fields size each
  /// shard's Device. Its `telemetry` is managed by the Router, which builds
  /// one telemetry::Sinks per shard from the fields below, and must be left
  /// defaulted (validate() rejects anything else).
  EngineOptions engine;

  /// Per-shard serve knobs (see serve::ServeOptions).
  std::uint32_t max_sessions_per_shard = 1024;
  serve::SessionLimits session_limits;
  std::uint64_t max_queue_bytes = 32u << 20;
  std::uint32_t max_queue_chunks = 4096;
  std::uint64_t coalesce_bytes = 4u << 20;
  /// true: every shard runs its own pump thread — N devices scanning
  /// concurrently (the configuration the hostcheck cluster audit covers).
  bool background = false;
  serve::AdmissionPolicy admission = serve::AdmissionPolicy::kDefault;

  /// router.* and device.<shard>.* series sink; null = off. Shard series
  /// are prefixed by SHARD index ("device.2.serve.batches",
  /// "device.2.pipeline.runs") so they are deterministic across runs
  /// regardless of how many devices the process created before.
  telemetry::MetricsRegistry* metrics = nullptr;

  /// Fleet tracing: the Router creates one tracer for its own router.feed /
  /// router.scan spans plus one per shard (wired into the shard's serve and
  /// engine layers), mints a TraceContext per request, and write_trace()
  /// exports the joined fleet trace — router process, per-shard host
  /// processes, per-shard simulated-device processes.
  bool trace = false;

  /// Flight recorder shared by every layer (admission, batch, lease, shard
  /// failure, health events land in it); null = off, zero cost.
  telemetry::FlightRecorder* recorder = nullptr;
  /// When non-empty and a recorder is set, mark_failed(k) writes a
  /// postmortem JSON (recorder window + metrics snapshot) to this path.
  /// write_postmortem() is the explicit any-time variant.
  std::string postmortem_path;
  /// Failure/health log sink; null = the process-global stderr logger.
  telemetry::Logger* logger = nullptr;

  /// Per-shard SLO targets (telemetry/health.h). Any target set stands the
  /// health monitor up: breaches publish health.<shard>.* series and
  /// placement becomes health-aware — degraded shards are deprioritized for
  /// new sessions, unhealthy shards are treated as failed-soft (skipped by
  /// open() and bulk scans whenever any better shard exists). Default: no
  /// targets, no monitor, classic least-loaded placement.
  telemetry::SloPolicy slo;
  /// Re-judge a shard's health every N feeds routed to it (>= 1).
  std::uint32_t health_eval_interval = 16;

  /// Hostcheck audit hook: observes the router mutex, every shard's serve
  /// mutexes, and every device's stream/lease activity. Null = off.
  gpusim::HostObserver* host_observer = nullptr;

  /// Adaptive backend routing (dispatch/dispatcher.h): when set, bulk
  /// scan() consults the cost model first — a CPU decision runs the whole
  /// text on the host DFA (no scatter, devices_used = 0) and a GPU
  /// decision takes the scatter/gather path, feeding the merged makespan
  /// back; every shard's serve layer shares the same dispatcher for its
  /// superbatches. It must outlive the Router. Null = classic
  /// always-scatter behavior.
  dispatch::Dispatcher* dispatcher = nullptr;

  Status validate() const;
};

/// Cluster-wide counters (also published as router.* metrics).
struct RouterStats {
  std::uint32_t shards = 0;
  std::uint32_t healthy_shards = 0;  ///< not failed, not draining
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_live = 0;
  std::uint64_t feeds = 0;
  std::uint64_t bytes = 0;
  std::uint64_t scans = 0;          ///< bulk scatter/gather scans
  std::uint64_t rebalances = 0;     ///< mark_failed/drain_shard migrations
  std::uint64_t sessions_rebalanced = 0;
  std::uint64_t matches_merged = 0; ///< matches returned by scan()
};

/// One shard's view: its device identity plus the underlying service stats.
struct ShardStats {
  std::uint32_t shard = 0;
  std::uint32_t device_id = 0;  ///< process-unique gpusim device id
  std::string device_name;
  bool failed = false;
  bool draining = false;
  std::uint64_t homed_sessions = 0;
  serve::ServiceStats service;
  /// SLO health (kOk when no policy is configured); see shard_health().
  telemetry::HealthState health = telemetry::HealthState::kOk;
};

/// Bulk scatter/gather output (Router::scan).
struct ClusterScanResult {
  /// Merged matches in global (end, pattern) order, exactly-once across
  /// slab seams. Complete only in Functional mode.
  std::vector<ac::Match> matches;
  std::uint32_t devices_used = 0;
  std::uint64_t input_bytes = 0;
  bool overflowed = false;
  /// Simulated wall-clock: max over devices (they run concurrently).
  double makespan_seconds = 0;
  std::vector<double> per_device_seconds;  ///< indexed by shard
  bool host_fallback = false;  ///< some slab degraded to the host DFA

  double throughput_gbps() const {
    return makespan_seconds > 0
               ? static_cast<double>(input_bytes) * 8.0 / makespan_seconds / 1e9
               : 0.0;
  }
};

class Router {
 public:
  /// Compiles `patterns` onto every shard (each device gets its own
  /// automaton upload) and stands the shards up. Fails (no throw) on
  /// invalid options or any shard's Device/Engine/Service failure.
  static Result<Router> create(const ac::PatternSet& patterns,
                               const ClusterOptions& options = {});

  Router(Router&&) noexcept;
  Router& operator=(Router&&) noexcept;
  ~Router();  ///< shutdown()

  // --- session path --------------------------------------------------------

  /// Opens a session on the least-loaded healthy shard. Fails kUnavailable
  /// when no healthy shard remains.
  Result<serve::SessionId> open();
  /// Routes the chunk to the session's home shard (follows migrations).
  Status feed(serve::SessionId id, std::string_view chunk);
  /// Matches delivered so far, sorted into global (end, pattern) order.
  Result<std::vector<ac::Match>> poll(serve::SessionId id);
  Result<serve::SessionStats> session_stats(serve::SessionId id) const;
  Status close(serve::SessionId id);
  /// Blocks until every accepted chunk on every shard is scanned+delivered.
  Status drain();
  /// Drains and stops every shard. Idempotent; the destructor calls it.
  void shutdown();

  // --- bulk scatter/gather path --------------------------------------------

  /// Slab-scatters `text` across the healthy devices and gathers the
  /// merged, exactly-once match stream (see file comment). Empty text
  /// succeeds empty; fails kUnavailable with no healthy shard.
  Result<ClusterScanResult> scan(std::string_view text);

  // --- topology control ----------------------------------------------------

  /// Fail-stop: flags shard k's device, drains its accepted work (host-DFA
  /// fallback — exact), migrates its sessions to healthy shards. Fails
  /// kUnavailable when k is the last healthy shard (a cluster must keep
  /// one), kInvalidArgument on an out-of-range shard. Idempotent per shard.
  Status mark_failed(std::uint32_t shard);
  /// Graceful variant: scans finish on the device, sessions migrate, the
  /// shard stops taking new sessions until restore().
  Status drain_shard(std::uint32_t shard);
  /// Readmits a failed/drained shard (new sessions may home there again;
  /// migrated sessions stay where they are).
  Status restore(std::uint32_t shard);

  /// Current home shard of a session; kInvalidArgument for unknown ids.
  Result<std::uint32_t> shard_of(serve::SessionId id) const;

  // --- observability -------------------------------------------------------

  /// Writes the fleet Chrome trace (ClusterOptions::trace must be on): the
  /// router's spans as one process, each shard's host spans as its own
  /// process, and each shard's last bulk-scan device timeline as a
  /// simulated-clock process — so Perfetto renders N shards side by side
  /// and a trace-id search joins a request across all of them.
  Status write_trace(std::ostream& out) const;

  /// Serializes a postmortem dump (ClusterOptions::recorder must be set):
  /// the recorder's retained window joined with a metrics snapshot.
  Status write_postmortem(std::ostream& out, std::string_view reason) const;

  /// Per-shard SLO health. Without a policy: kOk / empty breaches.
  telemetry::HealthState shard_health_state(std::uint32_t shard) const;
  Result<telemetry::ShardHealth> shard_health(std::uint32_t shard) const;

  RouterStats stats() const;
  Result<ShardStats> shard_stats(std::uint32_t shard) const;
  std::uint32_t shard_count() const;
  const ClusterOptions& options() const;
  /// The compiled automaton (shard 0's copy — all shards are identical).
  const ac::Dfa& dfa() const;

 private:
  struct Impl;
  explicit Router(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace acgpu::cluster
