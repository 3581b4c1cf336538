#include "cluster/router.h"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <ostream>
#include <unordered_map>

#include "ac/parallel_matcher.h"
#include "ac/serial_matcher.h"
#include "cluster/merge.h"
#include "dispatch/dispatcher.h"
#include "pipeline/telemetry_export.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/logger.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_context.h"
#include "util/stopwatch.h"

namespace acgpu::cluster {

namespace {

/// Shard k's session ids live at (k+1)<<48: disjoint per shard, globally
/// unique across devices, and deterministic — shard k's n-th open is
/// ((k+1)<<48)+n in every run.
constexpr std::uint64_t kShardIdShift = 48;

std::uint64_t shard_namespace(std::uint32_t shard) {
  return (static_cast<std::uint64_t>(shard) + 1) << kShardIdShift;
}

/// router.* series handles, resolved once at create.
struct RouterMetrics {
  telemetry::Counter* opened = nullptr;
  telemetry::Counter* feeds = nullptr;
  telemetry::Counter* feed_bytes = nullptr;
  telemetry::Counter* scans = nullptr;
  telemetry::Counter* rebalances = nullptr;
  telemetry::Counter* sessions_rebalanced = nullptr;
  telemetry::Counter* matches_merged = nullptr;
  telemetry::Gauge* shards = nullptr;
  telemetry::Gauge* healthy = nullptr;
  telemetry::Gauge* live = nullptr;
  telemetry::Gauge* scan_makespan = nullptr;
  telemetry::Gauge* scan_gbps = nullptr;

  void resolve(telemetry::MetricsRegistry& reg) {
    opened = &reg.counter("router.sessions.opened");
    feeds = &reg.counter("router.feeds");
    feed_bytes = &reg.counter("router.feed.bytes");
    scans = &reg.counter("router.scans");
    rebalances = &reg.counter("router.rebalances");
    sessions_rebalanced = &reg.counter("router.sessions.rebalanced");
    matches_merged = &reg.counter("router.matches.merged");
    shards = &reg.gauge("router.shards");
    healthy = &reg.gauge("router.healthy_shards");
    live = &reg.gauge("router.sessions.live");
    scan_makespan = &reg.gauge("router.scan.makespan_seconds");
    scan_gbps = &reg.gauge("router.scan.throughput_gbps");
  }
};

}  // namespace

Status ClusterOptions::validate() const {
  if (devices < 1 || devices > 64)
    return Status::invalid_argument("cluster devices must be in [1, 64], got " +
                                    std::to_string(devices));
  if (engine.telemetry != telemetry::Sinks{})
    return Status::invalid_argument(
        "ClusterOptions::engine.telemetry is managed by the Router (one "
        "per-shard Sinks built from metrics/trace/recorder/logger); leave it "
        "defaulted");
  if (health_eval_interval == 0)
    return Status::invalid_argument("health_eval_interval must be >= 1");
  serve::ServeOptions so;
  so.max_sessions = max_sessions_per_shard;
  so.max_queue_bytes = max_queue_bytes;
  so.max_queue_chunks = max_queue_chunks;
  so.coalesce_bytes = coalesce_bytes;
  so.background = background;
  so.admission = admission;
  return so.validate();
}

struct Router::Impl {
  struct Shard {
    std::unique_ptr<Device> device;
    std::optional<serve::StreamService> service;
    std::unique_ptr<Engine> bulk;  ///< lazy: only scan() callers pay for it
    bool failed = false;
    bool draining = false;
    std::uint64_t homed = 0;  ///< sessions currently homed here
    /// Host-span sink for this shard's serve + engine layers (trace mode).
    std::unique_ptr<telemetry::Tracer> tracer;
    /// The shard's telemetry: the cluster sinks, this shard's tracer, the
    /// device.<k>. prefix and shard index k. Handed unchanged to the serve
    /// engine and the bulk engine.
    telemetry::Sinks sinks;
    /// Last bulk-scan timeline, trimmed of matches — write_trace() exports
    /// it as this shard's simulated-device process (trace mode only).
    std::unique_ptr<pipeline::PipelineResult> last_bulk;
    std::uint32_t feeds_since_eval = 0;
    std::uint64_t seen_evictions = 0;  ///< evictions already fed to health
  };

  ClusterOptions options;
  ac::PatternSet patterns;  ///< kept for lazy bulk-engine compiles
  std::vector<Shard> shards;
  /// Session home lookup; updated on open/close and by every rebalance.
  std::unordered_map<serve::SessionId, std::uint32_t> home;
  RouterStats stats;
  RouterMetrics m;
  bool has_metrics = false;
  bool shut_down = false;

  /// Router-level spans (router.feed, router.scan) — the third clock-domain
  /// process in the fleet trace. Null when ClusterOptions::trace is off.
  std::unique_ptr<telemetry::Tracer> router_tracer;
  /// Deterministic request identities: the n-th traced request gets the
  /// same id in every run.
  telemetry::TraceContextMinter minter;
  /// SLO monitor; null when no target is set.
  std::unique_ptr<telemetry::HealthMonitor> health;

  telemetry::Logger& log() const {
    return options.logger != nullptr ? *options.logger
                                     : telemetry::Logger::global();
  }

  /// Requires options.recorder. Caller holds the router mutex (or is create).
  void write_postmortem_locked(std::ostream& out,
                               std::string_view reason) const {
    if (options.metrics != nullptr) {
      const telemetry::MetricsSnapshot snap = options.metrics->snapshot();
      options.recorder->write_postmortem(out, reason, &snap);
    } else {
      options.recorder->write_postmortem(out, reason);
    }
  }

  /// Serializes topology and routing decisions. Lock order (acyclic):
  /// cluster.router.mu -> serve.mu -> {serve.scheduler.mu,
  /// serve.manager.mu, device.<k>.mu}. Shard pump threads take serve.mu and
  /// the device mutex only, never this one.
  mutable gpusim::TrackedMutex mu{"cluster.router.mu"};

  std::uint32_t healthy_count() const {
    std::uint32_t n = 0;
    for (const Shard& s : shards)
      if (!s.failed && !s.draining) ++n;
    return n;
  }

  /// SLO rank of shard k for placement: ok=0, degraded=1, unhealthy=2
  /// (0 everywhere when no monitor is configured).
  std::uint32_t health_rank(std::uint32_t k) const {
    return health != nullptr ? static_cast<std::uint32_t>(health->state(k)) : 0;
  }

  /// Best placement target (deterministic: lowest index wins ties);
  /// shards.size() when none qualifies. Ranked by (health, load, index):
  /// degraded shards lose to ok ones regardless of load, and an unhealthy
  /// shard is failed-soft — only picked when nothing better exists.
  std::uint32_t pick_target(std::uint32_t exclude = UINT32_MAX) const {
    std::uint32_t best = static_cast<std::uint32_t>(shards.size());
    std::uint32_t best_rank = 0;
    for (std::uint32_t k = 0; k < shards.size(); ++k) {
      const Shard& s = shards[k];
      if (k == exclude || s.failed || s.draining) continue;
      const std::uint32_t rank = health_rank(k);
      if (best == shards.size() || rank < best_rank ||
          (rank == best_rank && s.homed < shards[best].homed)) {
        best = k;
        best_rank = rank;
      }
    }
    return best;
  }

  /// Refreshes shard k's gauge-style inputs (queue depth, evictions) and
  /// re-judges it. Caller holds the router mutex.
  void evaluate_health(std::uint32_t k) {
    if (health == nullptr) return;
    Shard& sh = shards[k];
    const serve::ServiceStats st = sh.service->stats();
    health->observe_queue_depth(k, static_cast<double>(st.queued_chunks));
    if (st.sessions_evicted > sh.seen_evictions) {
      health->observe_eviction(k, st.sessions_evicted - sh.seen_evictions);
      sh.seen_evictions = st.sessions_evicted;
    }
    health->evaluate(k);
  }

  void publish_topology() {
    if (!has_metrics) return;
    m.shards->set(static_cast<double>(shards.size()));
    m.healthy->set(static_cast<double>(healthy_count()));
    m.live->set(static_cast<double>(home.size()));
  }

  Status ensure_bulk_engine(std::uint32_t k) {
    Shard& shard = shards[k];
    if (shard.bulk != nullptr) return Status::ok();
    EngineOptions eopt = options.engine;
    eopt.telemetry = shard.sinks;
    Result<Engine> engine = Engine::create(*shard.device, patterns, eopt);
    if (!engine.is_ok()) return engine.status();
    shard.bulk = std::make_unique<Engine>(std::move(engine).value());
    return Status::ok();
  }

  /// Migrates every session homed on `from` to healthy shards. The caller
  /// already drained `from` (export_session requires it).
  Status rebalance_away(std::uint32_t from) {
    std::vector<serve::SessionId> moving;
    for (const auto& [id, shard] : home)
      if (shard == from) moving.push_back(id);
    std::sort(moving.begin(), moving.end());  // deterministic migration order
    for (serve::SessionId id : moving) {
      const std::uint32_t target = pick_target(from);
      if (target == shards.size())
        return Status::unavailable(
            "no healthy shard left to rebalance session " + std::to_string(id));
      Result<serve::SessionSnapshot> snapshot =
          shards[from].service->export_session(id);
      if (!snapshot.is_ok()) return snapshot.status();
      if (Status s = shards[target].service->import_session(snapshot.value()); !s)
        return s;
      home[id] = target;
      --shards[from].homed;
      ++shards[target].homed;
      ++stats.sessions_rebalanced;
      if (has_metrics) m.sessions_rebalanced->add(1);
    }
    return Status::ok();
  }

  /// Shared by mark_failed (fail-stop) and drain_shard (graceful): drain
  /// the shard's accepted work, then migrate its sessions away.
  Status retire_shard(std::uint32_t k) {
    if (Status s = shards[k].service->drain(); !s) return s;
    if (Status s = rebalance_away(k); !s) return s;
    ++stats.rebalances;
    if (has_metrics) m.rebalances->add(1);
    publish_topology();
    return Status::ok();
  }

  Result<serve::StreamService*> route(serve::SessionId id) {
    const auto it = home.find(id);
    if (it == home.end())
      return Status::invalid_argument("unknown session id " +
                                      std::to_string(id) +
                                      " (never opened, closed, or evicted)");
    return &*shards[it->second].service;
  }
};

Router::Router(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Router::Router(Router&&) noexcept = default;

Router& Router::operator=(Router&& other) noexcept {
  if (this != &other) {
    if (impl_) shutdown();
    impl_ = std::move(other.impl_);
  }
  return *this;
}

Router::~Router() {
  if (impl_) shutdown();
}

Result<Router> Router::create(const ac::PatternSet& patterns,
                              const ClusterOptions& options) {
  if (patterns.empty()) return Status::invalid_argument("empty pattern set");
  if (Status s = options.validate(); !s) return s;

  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->patterns = patterns;
  if (options.host_observer != nullptr) impl->mu.attach(options.host_observer);
  if (options.metrics != nullptr) {
    impl->m.resolve(*options.metrics);
    impl->has_metrics = true;
  }
  if (options.trace)
    impl->router_tracer = std::make_unique<telemetry::Tracer>();
  if (options.slo.enabled()) {
    impl->health = std::make_unique<telemetry::HealthMonitor>(
        options.devices, options.slo, options.metrics);
    // Transitions are rare by construction (state changes only), so they go
    // to the recorder AND the log. The listener fires under the router
    // mutex during evaluate_health — both sinks are leaves.
    Impl* im = impl.get();
    impl->health->set_transition_listener(
        [im](std::uint32_t shard, telemetry::HealthState from,
             telemetry::HealthState to) {
          if (im->options.recorder != nullptr)
            im->options.recorder->record(
                telemetry::FlightEventKind::kHealthTransition, shard,
                static_cast<std::uint64_t>(from),
                static_cast<std::uint64_t>(to));
          const std::string key =
              "cluster.health." + std::to_string(shard) + "." +
              telemetry::to_string(from) + "-" + telemetry::to_string(to);
          const std::string msg =
              "shard " + std::to_string(shard) + " went " +
              telemetry::to_string(from) + " -> " + telemetry::to_string(to) +
              " (" + im->health->shard_health(shard).breached + ")";
          if (to > from)
            im->log().warn(key, msg);
          else
            im->log().info(key, msg);
        });
  }

  impl->shards.reserve(options.devices);
  for (std::uint32_t k = 0; k < options.devices; ++k) {
    DeviceOptions dopt;
    dopt.gpu = options.engine.gpu;
    dopt.memory_bytes = options.engine.device_memory_bytes;
    dopt.host_observer = options.host_observer;
    dopt.name = "device." + std::to_string(k);
    Result<Device> device = Device::create(dopt);
    if (!device.is_ok()) return device.status();

    Impl::Shard shard;
    shard.device = std::make_unique<Device>(std::move(device).value());
    if (options.trace) shard.tracer = std::make_unique<telemetry::Tracer>();
    shard.sinks.metrics = options.metrics;
    shard.sinks.tracer = shard.tracer.get();
    shard.sinks.recorder = options.recorder;
    shard.sinks.logger = options.logger;
    shard.sinks.metrics_prefix = dopt.name + ".";
    shard.sinks.shard = k;

    serve::ServeOptions so;
    so.engine = options.engine;
    so.engine.telemetry = shard.sinks;
    so.device = shard.device.get();
    so.session_id_namespace = shard_namespace(k);
    so.max_sessions = options.max_sessions_per_shard;
    so.session_limits = options.session_limits;
    so.max_queue_bytes = options.max_queue_bytes;
    so.max_queue_chunks = options.max_queue_chunks;
    so.coalesce_bytes = options.coalesce_bytes;
    so.background = options.background;
    so.admission = options.admission;
    so.metrics = options.metrics;
    so.tracer = shard.tracer.get();
    so.host_observer = options.host_observer;
    so.dispatcher = options.dispatcher;
    Result<serve::StreamService> service =
        serve::StreamService::create(patterns, so);
    if (!service.is_ok()) return service.status();
    shard.service.emplace(std::move(service).value());
    impl->shards.push_back(std::move(shard));
  }
  impl->stats.shards = options.devices;
  impl->publish_topology();
  return Router(std::move(impl));
}

Result<serve::SessionId> Router::open() {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (im.shut_down) return Status::invalid_argument("Router is shut down");
  const std::uint32_t target = im.pick_target();
  if (target == im.shards.size())
    return Status::unavailable("no healthy shard to open a session on");
  Result<serve::SessionId> id = im.shards[target].service->open();
  if (!id.is_ok()) return id.status();
  im.home[id.value()] = target;
  ++im.shards[target].homed;
  ++im.stats.sessions_opened;
  im.stats.sessions_live = im.home.size();
  if (im.has_metrics) im.m.opened->add(1);
  im.publish_topology();
  return id;
}

Status Router::feed(serve::SessionId id, std::string_view chunk) {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  const auto it = im.home.find(id);
  if (it == im.home.end())
    return Status::invalid_argument("unknown session id " +
                                    std::to_string(id) +
                                    " (never opened, closed, or evicted)");
  const std::uint32_t shard = it->second;

  // Admission is where a request's causal identity is born: the router.feed
  // span carries the trace id, and the same id annotates every downstream
  // span (superbatch, pipeline, kernel) the request's bytes touch.
  telemetry::Span span(im.router_tracer.get(), "router.feed");
  telemetry::TraceContext trace;
  if (im.router_tracer != nullptr) {
    trace = im.minter.mint(span.id());
    span.annotate("trace_id", telemetry::trace_id_string(trace.trace_id));
    span.annotate("session", std::to_string(id));
    span.annotate("shard", std::to_string(shard));
    span.annotate("bytes", std::to_string(chunk.size()));
  }

  Stopwatch clock;
  const Status s = im.shards[shard].service->feed(id, chunk, trace);
  if (im.health != nullptr) {
    im.health->observe_feed(shard, static_cast<double>(clock.nanos()),
                            s.is_ok());
    Impl::Shard& sh = im.shards[shard];
    if (++sh.feeds_since_eval >= im.options.health_eval_interval) {
      sh.feeds_since_eval = 0;
      im.evaluate_health(shard);
    }
  }
  if (!s) {
    if (im.router_tracer != nullptr)
      span.annotate("status", to_string(s.code()));
    return s;
  }
  ++im.stats.feeds;
  im.stats.bytes += chunk.size();
  if (im.has_metrics) {
    im.m.feeds->add(1);
    im.m.feed_bytes->add(chunk.size());
  }
  return Status::ok();
}

Result<std::vector<ac::Match>> Router::poll(serve::SessionId id) {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  Result<serve::StreamService*> service = im.route(id);
  if (!service.is_ok()) return service.status();
  Result<std::vector<ac::Match>> out = service.value()->poll(id);
  if (!out.is_ok()) return out.status();
  // The service delivers in discovery order; the router's contract is the
  // merged global-offset order.
  std::vector<ac::Match> matches = std::move(out).value();
  ac::normalize_matches(matches);
  return matches;
}

Result<serve::SessionStats> Router::session_stats(serve::SessionId id) const {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  const auto it = im.home.find(id);
  if (it == im.home.end())
    return Status::invalid_argument("unknown session id " + std::to_string(id) +
                                    " (never opened, closed, or evicted)");
  return im.shards[it->second].service->session_stats(id);
}

Status Router::close(serve::SessionId id) {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  const auto it = im.home.find(id);
  if (it == im.home.end())
    return Status::invalid_argument("unknown session id " + std::to_string(id) +
                                    " (never opened, closed, or evicted)");
  const std::uint32_t shard = it->second;
  Status s = im.shards[shard].service->close(id);
  if (s.is_ok()) {
    im.home.erase(it);
    --im.shards[shard].homed;
    im.stats.sessions_live = im.home.size();
    im.publish_topology();
  }
  return s;
}

Status Router::drain() {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  for (Impl::Shard& shard : im.shards)
    if (Status s = shard.service->drain(); !s) return s;
  return Status::ok();
}

void Router::shutdown() {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (im.shut_down) return;
  im.shut_down = true;
  for (Impl::Shard& shard : im.shards) shard.service->shutdown();
}

Result<ClusterScanResult> Router::scan(std::string_view text) {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (im.shut_down) return Status::invalid_argument("Router is shut down");

  std::vector<std::uint32_t> healthy;
  for (std::uint32_t k = 0; k < im.shards.size(); ++k)
    if (!im.shards[k].failed && !im.shards[k].draining) healthy.push_back(k);
  if (healthy.empty())
    return Status::unavailable("no healthy device to scan on");
  // SLO-unhealthy shards are failed-soft: excluded from the scatter while
  // any better shard remains (the work just spreads across fewer slabs).
  if (im.health != nullptr) {
    std::vector<std::uint32_t> preferred;
    for (std::uint32_t k : healthy)
      if (im.health->state(k) != telemetry::HealthState::kUnhealthy)
        preferred.push_back(k);
    if (!preferred.empty()) healthy = std::move(preferred);
  }

  telemetry::Span span(im.router_tracer.get(), "router.scan");
  telemetry::TraceContext trace;
  if (im.router_tracer != nullptr) {
    trace = im.minter.mint(span.id());
    span.annotate("trace_id", telemetry::trace_id_string(trace.trace_id));
    span.annotate("bytes", std::to_string(text.size()));
    span.annotate("devices", std::to_string(healthy.size()));
  }

  ClusterScanResult result;
  result.input_bytes = text.size();
  result.per_device_seconds.assign(im.shards.size(), 0.0);
  if (text.empty()) return result;

  // Adaptive routing: a CPU decision answers from the host DFA without
  // touching a device; a GPU decision takes the scatter below and feeds
  // the merged makespan back into the model afterwards.
  dispatch::Decision decision;
  dispatch::WorkloadSignature sig;
  const bool dispatched = im.options.dispatcher != nullptr;
  if (dispatched) {
    dispatch::Dispatcher& dsp = *im.options.dispatcher;
    sig = dsp.signature(text, /*session=*/false);
    decision = dsp.choose(sig);
    if (decision.backend != dispatch::Backend::kGpuPipeline) {
      const ac::Dfa& dfa = im.shards[healthy.front()].service->dfa();
      const dispatch::CostModelConfig& cfg = dsp.cost_model().config();
      if (decision.backend == dispatch::Backend::kSerialCpu) {
        result.matches = ac::find_all(dfa, text);
        result.makespan_seconds =
            dispatch::modeled_serial_seconds(dfa, text, cfg.cpu);
      } else {
        result.matches = ac::find_all_parallel(dfa, text, cfg.parallel_threads);
        result.makespan_seconds =
            dispatch::modeled_parallel_seconds(dfa, text, cfg);
      }
      ac::normalize_matches(result.matches);
      dsp.observe(decision, sig, result.makespan_seconds);
      ++im.stats.scans;
      im.stats.matches_merged += result.matches.size();
      if (im.has_metrics) {
        im.m.scans->add(1);
        im.m.matches_merged->add(result.matches.size());
        im.m.scan_makespan->set(result.makespan_seconds);
        im.m.scan_gbps->set(result.throughput_gbps());
      }
      return result;
    }
  }

  for (std::uint32_t k : healthy)
    if (Status s = im.ensure_bulk_engine(k); !s) return s;

  const ac::Dfa& dfa = im.shards[healthy.front()].bulk->dfa();
  const std::uint64_t overlap =
      dfa.max_pattern_length() > 0 ? dfa.max_pattern_length() - 1 : 0;
  const std::uint64_t total = text.size();
  const std::uint64_t slab =
      (total + healthy.size() - 1) / healthy.size();  // ceil

  std::vector<std::vector<ac::Match>> parts;
  parts.reserve(healthy.size());
  for (std::size_t i = 0; i < healthy.size(); ++i) {
    const std::uint32_t k = healthy[i];
    const std::uint64_t base = static_cast<std::uint64_t>(i) * slab;
    if (base >= total) break;
    const std::uint64_t owned = std::min(slab, total - base);
    // The slab's device slice carries the next slab's first overlap bytes so
    // a match STARTING in the owned range is fully visible here; matches
    // starting in the carry belong to the successor (exactly-once).
    const std::uint64_t staged = std::min(owned + overlap, total - base);
    const std::string_view slice = text.substr(base, staged);

    std::vector<ac::Match> matches;
    Result<ScanResult> scan = im.shards[k].bulk->scan(slice);
    if (scan.is_ok() && !scan.value().overflowed) {
      matches = std::move(scan.value().matches);
      result.per_device_seconds[k] = scan.value().stats.makespan_seconds;
      if (im.options.trace) {
        // Keep the timeline (matches already moved out) so write_trace can
        // export this shard's simulated-device process.
        im.shards[k].last_bulk = std::make_unique<pipeline::PipelineResult>(
            std::move(scan).value());
        im.shards[k].last_bulk->matches.clear();
      }
    } else if (!scan.is_ok() &&
               scan.status().code() != StatusCode::kCapacityExceeded) {
      return scan.status();
    } else {
      // Device match buffer overflowed: the host DFA is exact, so the slab
      // degrades to host speed instead of dropping matches.
      matches = ac::find_all(dfa, slice);
      result.host_fallback = true;
      result.overflowed = true;
    }
    std::erase_if(matches, [&](const ac::Match& m) {
      const std::uint64_t len = dfa.pattern_length(m.pattern);
      return m.end + 1 - len >= owned;  // starts in the carry: successor's
    });
    for (ac::Match& m : matches) m.end += base;
    parts.push_back(std::move(matches));
    ++result.devices_used;
  }

  result.makespan_seconds = *std::max_element(result.per_device_seconds.begin(),
                                              result.per_device_seconds.end());
  result.matches = merge_sorted(std::move(parts));
  // A host-fallback slab's time never reached per_device_seconds — the
  // makespan is not a clean GPU measurement, so it must not refine the curve.
  if (dispatched && !result.host_fallback)
    im.options.dispatcher->observe(decision, sig, result.makespan_seconds);
  ++im.stats.scans;
  im.stats.matches_merged += result.matches.size();
  if (im.has_metrics) {
    im.m.scans->add(1);
    im.m.matches_merged->add(result.matches.size());
    im.m.scan_makespan->set(result.makespan_seconds);
    im.m.scan_gbps->set(result.throughput_gbps());
  }
  return result;
}

Status Router::mark_failed(std::uint32_t shard) {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (shard >= im.shards.size())
    return Status::invalid_argument("shard " + std::to_string(shard) +
                                    " out of range (cluster has " +
                                    std::to_string(im.shards.size()) + ")");
  Impl::Shard& sh = im.shards[shard];
  if (sh.failed) return Status::ok();  // idempotent
  if (im.healthy_count() <= 1 && !sh.draining)
    return Status::unavailable("cannot fail shard " + std::to_string(shard) +
                               ": it is the last healthy shard");
  // Fail-stop: the device refuses scans from here on. Chunks already
  // accepted drain through the serve layer's exact host-DFA fallback, so
  // nothing accepted is lost.
  sh.device->mark_failed("cluster mark_failed");
  sh.failed = true;
  if (im.options.recorder != nullptr)
    im.options.recorder->record(telemetry::FlightEventKind::kShardFailure,
                                shard);
  im.log().error("cluster.shard_failed." + std::to_string(shard),
                 "shard " + std::to_string(shard) + " (" + sh.device->name() +
                     ") marked failed; draining and migrating its sessions");
  // The black box pays off exactly here: freeze the last window of fleet
  // events + a metrics snapshot before the drain/migration churns state.
  if (im.options.recorder != nullptr && !im.options.postmortem_path.empty()) {
    std::ofstream out(im.options.postmortem_path);
    if (out)
      im.write_postmortem_locked(
          out, "shard " + std::to_string(shard) + " marked failed");
    else
      im.log().warn("cluster.postmortem_path",
                    "could not open postmortem path '" +
                        im.options.postmortem_path + "' for writing");
  }
  return im.retire_shard(shard);
}

Status Router::drain_shard(std::uint32_t shard) {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (shard >= im.shards.size())
    return Status::invalid_argument("shard " + std::to_string(shard) +
                                    " out of range (cluster has " +
                                    std::to_string(im.shards.size()) + ")");
  Impl::Shard& sh = im.shards[shard];
  if (sh.draining || sh.failed) return Status::ok();  // idempotent
  if (im.healthy_count() <= 1)
    return Status::unavailable("cannot drain shard " + std::to_string(shard) +
                               ": it is the last healthy shard");
  // Graceful: the device stays healthy, so queued work finishes at device
  // speed; the shard just stops taking new sessions.
  sh.draining = true;
  return im.retire_shard(shard);
}

Status Router::restore(std::uint32_t shard) {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (shard >= im.shards.size())
    return Status::invalid_argument("shard " + std::to_string(shard) +
                                    " out of range (cluster has " +
                                    std::to_string(im.shards.size()) + ")");
  Impl::Shard& sh = im.shards[shard];
  sh.device->restore();
  sh.failed = false;
  sh.draining = false;
  if (im.options.recorder != nullptr)
    im.options.recorder->record(telemetry::FlightEventKind::kShardRestore,
                                shard);
  im.publish_topology();
  return Status::ok();
}

Result<std::uint32_t> Router::shard_of(serve::SessionId id) const {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  const auto it = im.home.find(id);
  if (it == im.home.end())
    return Status::invalid_argument("unknown session id " + std::to_string(id));
  return it->second;
}

RouterStats Router::stats() const {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  RouterStats out = im.stats;
  out.shards = static_cast<std::uint32_t>(im.shards.size());
  out.healthy_shards = im.healthy_count();
  out.sessions_live = im.home.size();
  return out;
}

Result<ShardStats> Router::shard_stats(std::uint32_t shard) const {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (shard >= im.shards.size())
    return Status::invalid_argument("shard " + std::to_string(shard) +
                                    " out of range (cluster has " +
                                    std::to_string(im.shards.size()) + ")");
  const Impl::Shard& sh = im.shards[shard];
  ShardStats out;
  out.shard = shard;
  out.device_id = sh.device->id();
  out.device_name = sh.device->name();
  out.failed = sh.failed;
  out.draining = sh.draining;
  out.homed_sessions = sh.homed;
  out.service = sh.service->stats();
  if (im.health != nullptr) out.health = im.health->state(shard);
  return out;
}

Status Router::write_trace(std::ostream& out) const {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (im.router_tracer == nullptr)
    return Status::invalid_argument(
        "fleet tracing is off; set ClusterOptions::trace");
  telemetry::ChromeTrace trace;
  // One process per clock domain: the router's wall clock, each shard's
  // host wall clock, and each shard's simulated-device clock — distinct
  // pids so Perfetto renders N shards side by side instead of colliding
  // their tracks (the pre-fleet exporter only knew two processes).
  trace.add_tracer(*im.router_tracer, "cluster router");
  for (std::uint32_t k = 0; k < im.shards.size(); ++k) {
    const Impl::Shard& sh = im.shards[k];
    if (sh.tracer != nullptr)
      trace.add_tracer(*sh.tracer, "shard " + std::to_string(k) + " host");
    if (sh.last_bulk != nullptr) {
      pipeline::TraceExportOptions eopt;
      eopt.process_name = "shard " + std::to_string(k) + " device sim";
      pipeline::add_scan_to_trace(trace, *sh.last_bulk, eopt);
    }
  }
  trace.write(out);
  return Status::ok();
}

Status Router::write_postmortem(std::ostream& out,
                                std::string_view reason) const {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (im.options.recorder == nullptr)
    return Status::invalid_argument(
        "no flight recorder; set ClusterOptions::recorder");
  im.write_postmortem_locked(out, reason);
  return Status::ok();
}

telemetry::HealthState Router::shard_health_state(std::uint32_t shard) const {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (im.health == nullptr || shard >= im.shards.size())
    return telemetry::HealthState::kOk;
  return im.health->state(shard);
}

Result<telemetry::ShardHealth> Router::shard_health(std::uint32_t shard) const {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (shard >= im.shards.size())
    return Status::invalid_argument("shard " + std::to_string(shard) +
                                    " out of range (cluster has " +
                                    std::to_string(im.shards.size()) + ")");
  if (im.health == nullptr) return telemetry::ShardHealth{};
  return im.health->shard_health(shard);
}

std::uint32_t Router::shard_count() const {
  return static_cast<std::uint32_t>(impl_->shards.size());
}

const ClusterOptions& Router::options() const { return impl_->options; }
const ac::Dfa& Router::dfa() const { return impl_->shards.front().service->dfa(); }

}  // namespace acgpu::cluster
