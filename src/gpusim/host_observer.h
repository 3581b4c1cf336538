// Host-orchestration recording hook points — the seam the hostcheck/
// happens-before auditor plugs into (the device-side twin is
// access_observer.h, which gpucheck uses to audit hazards INSIDE a kernel).
//
// The async host pipeline synchronizes through three vocabularies:
//
//   streams/events   StreamSim op enqueue, cudaEventRecord/WaitEvent, and
//                    the host-driven wait_until timestamp dependency;
//   staging leases   StagingPool acquire/release of upload and readback
//                    buffers (pipeline/staging_pool.h);
//   host locks       the serve-side mutexes (service, session manager,
//                    scheduler) wrapped in TrackedMutex below.
//
// A HostObserver receives one callback per such action, in a single global
// order (implementations serialize internally). hostcheck::Recorder is the
// shipped implementation; it replays the record stream into an op DAG,
// computes vector-clock happens-before, and reports schedules that are only
// correct by timing luck. Every hook site is guarded by a null check, so an
// unattached pipeline pays one predictable branch per action — the same
// zero-cost-when-off contract as AccessObserver and telemetry::Sinks.
//
// This header lives in gpusim (not hostcheck) because gpusim is the lowest
// layer every instrumented component already links: StreamSim reports its
// own ops here, while the staging pools and serve locks sit above and reuse
// the same interface. Only the analyzer (src/hostcheck/) depends on the
// records' meaning.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace acgpu::gpusim {

/// Engine class a host-visible stream op occupies (mirrors StreamOpKind;
/// duplicated so record consumers do not need stream.h).
enum class HostOpKind : std::uint8_t { kH2D = 0, kKernel = 1, kD2H = 2 };

/// One enqueued stream operation, as resolved on the simulated timeline.
/// `sim` scopes ids: each StreamSim instance registers itself and restarts
/// op/stream/event numbering, so records from successive Engine::scan calls
/// never collide.
struct HostOpRecord {
  std::uint32_t sim = 0;
  std::uint64_t op = 0;  ///< StreamSim timeline index
  std::uint32_t stream = 0;
  HostOpKind kind{};
  double start = 0;  ///< simulated seconds
  double end = 0;
  std::uint64_t bytes = 0;
  std::string label;
};

/// A device-address range an op reads or writes, declared by the layer that
/// knows it (the pipeline annotates its H2D writes and kernel reads of the
/// staged slice; StreamSim annotates functional copies itself). Conflicting
/// unordered ranges are the auditor's core hazard.
struct HostAccessRecord {
  std::uint32_t sim = 0;
  std::uint64_t op = 0;
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;
  bool is_write = false;
};

/// cudaEventRecord: the event captures completion of all work enqueued on
/// `stream` so far.
struct HostEventRecord {
  std::uint32_t sim = 0;
  std::uint32_t event = 0;
  std::uint32_t stream = 0;
  double seconds = 0;
};

/// cudaStreamWaitEvent: the next op on `stream` starts after the event.
struct HostWaitEventRecord {
  std::uint32_t sim = 0;
  std::uint32_t stream = 0;
  std::uint32_t event = 0;
};

/// Host-driven timestamp dependency: the next op on `stream` starts at or
/// after `seconds`. Ops already enqueued whose end <= seconds are thereby
/// ordered before it — the lease-recycling handshake the pipeline uses.
struct HostWaitUntilRecord {
  std::uint32_t sim = 0;
  std::uint32_t stream = 0;
  double seconds = 0;
};

/// StagingPool::try_acquire / acquire_blocking handed out buffer `buffer`
/// of pool `pool`. `ready` is the simulated drain time of the previous
/// lease — the producer must not touch the buffer before then.
struct HostLeaseRecord {
  std::uint32_t pool = 0;
  std::uint32_t buffer = 0;
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;
  double ready = 0;
};

/// StagingPool::release: the buffer re-enters the free list, declared
/// drained at simulated time `drained_at`.
struct HostReleaseRecord {
  std::uint32_t pool = 0;
  std::uint32_t buffer = 0;
  double drained_at = 0;
};

/// TrackedMutex acquire/release, keyed by the registered mutex id and the
/// calling thread. Acquire-while-holding pairs build the lock-order graph.
struct HostLockRecord {
  std::uint64_t thread = 0;
  std::uint32_t mutex = 0;
  bool acquire = false;
};

class HostObserver {
 public:
  virtual ~HostObserver() = default;

  /// A StreamSim came up; the returned id scopes its op/stream/event
  /// numbering. Successive sims are totally ordered by host program order
  /// (each pipeline run resolves fully before the next begins), so the
  /// auditor never compares accesses across sims.
  virtual std::uint32_t register_sim() = 0;
  /// A StagingPool came up under `name` ("upload", "readback", ...).
  /// `sim` is the StreamSim whose timeline the pool's buffers serve:
  /// device addresses are arena offsets, so pools of different devices
  /// (cluster shards) occupy overlapping ranges, and the auditor must only
  /// attribute a sim's accesses to that sim's own pools.
  virtual std::uint32_t register_pool(const std::string& name,
                                      std::uint32_t buffers,
                                      std::uint64_t buffer_bytes,
                                      std::uint32_t sim) = 0;
  /// A TrackedMutex came up under `name` ("serve.mu", "serve.scheduler.mu").
  virtual std::uint32_t register_mutex(const std::string& name) = 0;

  virtual void on_op(const HostOpRecord& record) = 0;
  virtual void on_access(const HostAccessRecord& record) = 0;
  virtual void on_event_record(const HostEventRecord& record) = 0;
  virtual void on_wait_event(const HostWaitEventRecord& record) = 0;
  virtual void on_wait_until(const HostWaitUntilRecord& record) = 0;
  virtual void on_lease(const HostLeaseRecord& record) = 0;
  virtual void on_release(const HostReleaseRecord& record) = 0;
  virtual void on_lock(const HostLockRecord& record) = 0;
};

/// A named std::mutex that reports acquire/release to a HostObserver —
/// Lockable, so std::unique_lock/std::scoped_lock/condition_variable_any
/// drive it unchanged. With no observer attached (the default) lock() is
/// one branch over the plain mutex. attach() must happen before the mutex
/// is shared across threads (construction time in practice).
///
/// condition_variable_any waits report the wait's release/re-acquire pair
/// too, so the auditor's per-thread held set stays exact across waits.
class TrackedMutex {
 public:
  explicit TrackedMutex(std::string name) : name_(std::move(name)) {}

  TrackedMutex(const TrackedMutex&) = delete;
  TrackedMutex& operator=(const TrackedMutex&) = delete;

  /// Registers with `observer` (null detaches). Not thread-safe against
  /// concurrent lock(); call before the mutex goes live.
  void attach(HostObserver* observer) {
    observer_ = observer;
    if (observer_ != nullptr) id_ = observer_->register_mutex(name_);
  }

  void lock() {
    mu_.lock();
    record(true);
  }
  bool try_lock() {
    if (!mu_.try_lock()) return false;
    record(true);
    return true;
  }
  void unlock() {
    record(false);
    mu_.unlock();
  }

  const std::string& name() const { return name_; }

 private:
  void record(bool acquire) {
    if (observer_ == nullptr) return;
    observer_->on_lock(HostLockRecord{
        std::hash<std::thread::id>{}(std::this_thread::get_id()), id_, acquire});
  }

  std::mutex mu_;
  std::string name_;
  HostObserver* observer_ = nullptr;
  std::uint32_t id_ = 0;
};

}  // namespace acgpu::gpusim
