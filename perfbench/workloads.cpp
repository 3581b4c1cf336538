// The three workloads. Each builds its inputs from the seed, sets the
// system up several times (setup_s is the median), measures, checks every
// answer against ac::find_all, and reports the same end-to-end metric names
// (untraced run) or per-layer metric names (traced run) as the others.
// BENCHMARK.md in this directory gives each metric's clock and base.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "ac/automaton.h"
#include "ac/dfa.h"
#include "ac/serial_matcher.h"
#include "bench.h"
#include "cluster/router.h"
#include "dispatch/dispatcher.h"
#include "pipeline/engine.h"
#include "serve/service.h"
#include "telemetry/metrics_registry.h"
#include "util/error.h"
#include "util/stopwatch.h"
#include "workload/dna.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace perfbench {
namespace {

using namespace acgpu;

constexpr int kSetupRepeats = 3;
constexpr double kMB = 1e6;

constexpr const char* kSimClock = "simulated device";
constexpr const char* kWallClock = "host wall";
constexpr const char* kModelClock = "modeled Core2 + simulated device";
constexpr const char* kCount = "count";

ac::Dfa compile(const ac::PatternSet& patterns) {
  const ac::Automaton automaton(patterns);
  return ac::Dfa(automaton, patterns);
}

std::uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

/// The end-to-end metrics; every workload reports all of them.
struct EndToEnd {
  double sim_gbps = 0;
  double host_mbps = 0;
  double setup_s = 0;
  double device_mb = 0;
  double alert_p50_ms = 0;
  double max_rate_mbps = 0;
  const char* sim_clock = kSimClock;
  const char* alert_clock = kWallClock;

  void emit(Report& r) const {
    r.set("sim_gbps", sim_gbps, "Gbps", sim_clock);
    r.set("host_mbps", host_mbps, "MB/s", kWallClock);
    r.set("setup_s", setup_s, "s", kWallClock);
    r.set("device_mb", device_mb, "MB", kSimClock);
    r.set("host_rss_mb", peak_rss_mb(), "MB", "host memory");
    r.set("alert_p50_ms", alert_p50_ms, "ms", alert_clock);
    r.set("max_rate_mbps", max_rate_mbps, "MB/s", kWallClock);
  }
};

struct LayerDef {
  const char* name;
  const char* unit;
  const char* clock;
};

// Every per-layer metric, in the order BENCHMARK.md lists them. A workload
// that does not exercise a layer reports it as 0.
constexpr LayerDef kLayerDefs[] = {
    {"pipeline.makespan_ms", "ms", kSimClock},
    {"pipeline.h2d_busy_ms", "ms", kSimClock},
    {"pipeline.kernel_busy_ms", "ms", kSimClock},
    {"pipeline.d2h_busy_ms", "ms", kSimClock},
    {"pipeline.pool_wait_ms", "ms", kSimClock},
    {"pipeline.d2h_mb", "MB", kSimClock},
    {"pipeline.readback_ratio", "ratio", kSimClock},
    {"pipeline.batches", kCount, kSimClock},
    {"pipeline.overlap_ratio", "ratio", kSimClock},
    {"pipeline.bound_share", "ratio", kSimClock},
    {"pipeline.batch_p50_ms", "ms", kSimClock},
    {"gpusim.tex_hit_rate", "ratio", kSimClock},
    {"gpusim.stall_tex_cycles", "cycles", kSimClock},
    {"gpusim.stall_global_cycles", "cycles", kSimClock},
    {"gpusim.shared_avg_degree", "ratio", kSimClock},
    {"gpusim.global_txn_per_request", "ratio", kSimClock},
    {"gpusim.warp_instructions", kCount, kSimClock},
    {"gpusim.host_ns_per_warp_instr", "ns", kWallClock},
    {"kernel.simulate_ms", "ms", kWallClock},
    {"pipeline.run_self_ms", "ms", kWallClock},
    {"pipeline.batch_self_ms", "ms", kWallClock},
    {"engine.scan_self_ms", "ms", kWallClock},
    {"router.scan_self_ms", "ms", kWallClock},
    {"cluster.device_skew", "ratio", kSimClock},
    {"cluster.matches_merged", kCount, "none"},
    {"cluster.host_fallbacks", kCount, "none"},
    {"serve.superbatch_self_ms", "ms", kWallClock},
    {"serve.chunks_per_batch", "ratio", "none"},
    {"serve.max_queue_chunks", kCount, "none"},
    {"serve.feeds_rejected", kCount, "none"},
    {"serve.feed_call_us", "us", kWallClock},
    {"serve.poll_call_us", "us", kWallClock},
    {"dispatch.cpu_decisions", kCount, "none"},
    {"dispatch.gpu_decisions", kCount, "none"},
    {"dispatch.mispredictions", kCount, "none"},
    {"ac.find_all_mbps", "MB/s", kWallClock},
    {"setup.create_ms", "ms", kWallClock},
    {"setup.first_scan_ms", "ms", kWallClock},
    {"generator.late_ms", "ms", kWallClock},
    {"alert.samples", kCount, "none"},
    {"alert.p99_ms", "ms", kWallClock},
    {"trace.overhead_ratio", "ratio", kWallClock},
};

class Layers {
 public:
  void set(const std::string& name, double value) {
    const bool known = std::any_of(std::begin(kLayerDefs), std::end(kLayerDefs),
                                   [&](const LayerDef& d) { return name == d.name; });
    ACGPU_CHECK(known, "unknown layer metric " << name);
    values_[name] = value;
  }
  void emit(Report& r) const {
    for (const LayerDef& d : kLayerDefs) {
      const auto it = values_.find(d.name);
      r.set(d.name, it == values_.end() ? 0.0 : it->second, d.unit, d.clock);
    }
  }

 private:
  std::map<std::string, double> values_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// pipeline.* and gpusim.* layers from the metrics registry: counters as
/// deltas over the measured requests, per-scan gauges from the device whose
/// last scan took longest (the one that set the makespan). All stay 0 when
/// no device scan ran between the snapshots.
void pipeline_layers(Layers& layers, const telemetry::MetricsSnapshot& before,
                     const telemetry::MetricsSnapshot& after,
                     const std::vector<std::string>& prefixes, double requests,
                     double kernel_simulate_ns) {
  const auto delta = [&](const std::string& name) {
    double sum = 0;
    for (const std::string& p : prefixes)
      sum += after.value(p + name).value_or(0) - before.value(p + name).value_or(0);
    return sum;
  };
  const auto gauge = [&](const std::string& p, const std::string& name) {
    return after.value(p + name).value_or(0);
  };
  // Gauges hold the last scan's values; with no device scan in the window
  // they would describe one from outside it.
  if (delta("pipeline.runs") == 0) return;
  std::string crit = prefixes.front();
  for (const std::string& p : prefixes)
    if (gauge(p, "pipeline.makespan_seconds") > gauge(crit, "pipeline.makespan_seconds"))
      crit = p;
  const double makespan = gauge(crit, "pipeline.makespan_seconds");
  const double h2d = gauge(crit, "pipeline.h2d_busy_seconds");
  const double kernel = gauge(crit, "pipeline.compute_busy_seconds");
  const double d2h = gauge(crit, "pipeline.d2h_busy_seconds");
  layers.set("pipeline.makespan_ms", makespan * 1e3);
  layers.set("pipeline.h2d_busy_ms", h2d * 1e3);
  layers.set("pipeline.kernel_busy_ms", kernel * 1e3);
  layers.set("pipeline.d2h_busy_ms", d2h * 1e3);
  layers.set("pipeline.pool_wait_ms", (gauge(crit, "pipeline.blocked_seconds") +
                                       gauge(crit, "pipeline.readback_wait_seconds")) * 1e3);
  layers.set("pipeline.overlap_ratio", gauge(crit, "pipeline.overlap_ratio"));
  layers.set("pipeline.bound_share", ratio(std::max({h2d, kernel, d2h}), makespan));
  layers.set("pipeline.batch_p50_ms", gauge(crit, "pipeline.batch.latency_ns.p50") / 1e6);
  const double output = delta("pipeline.output_bytes");
  layers.set("pipeline.d2h_mb", ratio(output / kMB, requests));
  layers.set("pipeline.readback_ratio", ratio(output, delta("pipeline.input_bytes")));
  layers.set("pipeline.batches", ratio(delta("pipeline.batches"), requests));

  const double warps = delta("gpusim.issue.warp_instructions");
  const double fetches = delta("gpusim.tex.lane_fetches");
  const double groups = delta("gpusim.shared.groups");
  layers.set("gpusim.warp_instructions", ratio(warps, requests));
  layers.set("gpusim.stall_tex_cycles", ratio(delta("gpusim.stall.tex_cycles"), requests));
  layers.set("gpusim.stall_global_cycles",
             ratio(delta("gpusim.stall.global_cycles"), requests));
  layers.set("gpusim.tex_hit_rate",
             fetches > 0 ? 1.0 - delta("gpusim.tex.misses") / fetches : 0.0);
  layers.set("gpusim.shared_avg_degree",
             groups > 0 ? 1.0 + delta("gpusim.shared.conflict_cycles") / groups : 0.0);
  layers.set("gpusim.global_txn_per_request",
             ratio(delta("gpusim.global.transactions"), delta("gpusim.global.requests")));
  layers.set("gpusim.host_ns_per_warp_instr", ratio(kernel_simulate_ns, warps));
}

/// Host-wall self times of the engine layers, per request.
void engine_span_layers(Layers& layers, const SpanLedger& ledger, double requests) {
  layers.set("kernel.simulate_ms", ratio(ledger.self_ns("kernel.simulate") / 1e6, requests));
  layers.set("pipeline.run_self_ms", ratio(ledger.self_ns("pipeline.run") / 1e6, requests));
  layers.set("pipeline.batch_self_ms", ratio(ledger.self_ns("pipeline.batch") / 1e6, requests));
  layers.set("engine.scan_self_ms", ratio(ledger.self_ns("engine.scan") / 1e6, requests));
}

void check_spans(Report& r, const SpanLedger& ledger, const std::string& where) {
  for (const std::string& s : ledger.overcovered())
    r.invalid(where + ": children outgrow their parent span " + s);
}

bool same_matches(std::vector<ac::Match> got, const std::vector<ac::Match>& ref) {
  ac::normalize_matches(got);
  return got == ref;
}

// ---------------------------------------------------------------------------
// Bulk workloads: one input scanned repeatedly after a warm-up scan.
// ---------------------------------------------------------------------------

struct BulkScan {
  std::vector<ac::Match> matches;
  double makespan_s = 0;
  /// Every simulated-clock figure of the scan; must repeat exactly.
  std::vector<double> sim;
  std::vector<double> per_device_s;
  std::uint64_t host_fallbacks = 0;
};

/// The system under test, created once per set-up.
class BulkSystem {
 public:
  virtual ~BulkSystem() = default;
  virtual Result<BulkScan> scan(std::string_view text) = 0;
  /// Simulated device memory allocated after set-up, in MB.
  virtual double device_mb() const = 0;
  /// Per-layer metrics of a traced pass. `bench` holds the benchmark's
  /// spans of the `scans` timed scans; the snapshots bracket them.
  virtual void traced_layers(Layers& layers, SpanLedger& bench,
                             const telemetry::MetricsSnapshot& before,
                             const telemetry::MetricsSnapshot& after, const BulkScan& warm,
                             std::size_t scans, Report& r) = 0;
};

/// Sinks a traced pass wires into the system at create time.
struct Sinks {
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::Tracer* tracer = nullptr;
};

class EngineSystem final : public BulkSystem {
 public:
  EngineSystem(const ac::PatternSet& patterns, EngineOptions options, Sinks sinks) {
    Result<Device> device = Device::create();
    ACGPU_CHECK(device.is_ok(), device.status().to_string());
    device_ = std::make_unique<Device>(std::move(device).value());
    options.telemetry.metrics = sinks.metrics;
    options.telemetry.tracer = sinks.tracer;
    Result<Engine> engine = Engine::create(*device_, patterns, options);
    ACGPU_CHECK(engine.is_ok(), engine.status().to_string());
    engine_.emplace(std::move(engine).value());
  }

  Result<BulkScan> scan(std::string_view text) override {
    Result<ScanResult> scan = engine_->scan(text);
    if (!scan.is_ok()) return scan.status();
    ScanResult& s = scan.value();
    const pipeline::PipelineStats& st = s.stats;
    const gpusim::Metrics& m = s.metrics;
    BulkScan out;
    out.matches = std::move(s.matches);
    out.makespan_s = st.makespan_seconds;
    out.host_fallbacks = s.overflowed ? 1 : 0;
    out.sim = {st.makespan_seconds,
               st.h2d_busy_seconds,
               st.compute_busy_seconds,
               st.d2h_busy_seconds,
               st.overlap_seconds,
               st.blocked_seconds,
               st.readback_wait_seconds,
               static_cast<double>(st.batches),
               static_cast<double>(st.output_bytes),
               static_cast<double>(m.warp_instructions),
               static_cast<double>(m.tex_misses),
               static_cast<double>(m.stall_tex_cycles),
               static_cast<double>(m.stall_global_cycles),
               static_cast<double>(m.global_transactions),
               static_cast<double>(m.shared_conflict_cycles)};
    return out;
  }

  double device_mb() const override {
    return static_cast<double>(device_->memory().allocated()) / kMB;
  }

  void traced_layers(Layers& layers, SpanLedger& bench, const telemetry::MetricsSnapshot& before,
                     const telemetry::MetricsSnapshot& after, const BulkScan&, std::size_t scans,
                     Report&) override {
    const auto n = static_cast<double>(scans);
    engine_span_layers(layers, bench, n);
    pipeline_layers(layers, before, after, {""}, n, bench.self_ns("kernel.simulate"));
  }

 private:
  std::unique_ptr<Device> device_;
  std::optional<Engine> engine_;
};

class RouterSystem final : public BulkSystem {
 public:
  /// `upload_mb` is one automaton upload's arena use, measured on a twin
  /// device: the Router does not expose its devices' arenas.
  RouterSystem(const ac::PatternSet& patterns, cluster::ClusterOptions options,
               double upload_mb, Sinks sinks)
      : upload_mb_(upload_mb) {
    options.metrics = sinks.metrics;
    options.trace = sinks.tracer != nullptr;
    Result<cluster::Router> router = cluster::Router::create(patterns, options);
    ACGPU_CHECK(router.is_ok(), router.status().to_string());
    router_.emplace(std::move(router).value());
  }

  Result<BulkScan> scan(std::string_view text) override {
    Result<cluster::ClusterScanResult> scan = router_->scan(text);
    if (!scan.is_ok()) return scan.status();
    cluster::ClusterScanResult& s = scan.value();
    BulkScan out;
    out.matches = std::move(s.matches);
    out.makespan_s = s.makespan_seconds;
    out.per_device_s = s.per_device_seconds;
    out.host_fallbacks = s.host_fallback ? 1 : 0;
    out.sim = s.per_device_seconds;
    out.sim.push_back(s.makespan_seconds);
    out.sim.push_back(s.devices_used);
    return out;
  }

  /// Each shard holds two uploads of the automaton: its serve engine's and
  /// its bulk engine's.
  double device_mb() const override {
    return 2.0 * router_->shard_count() * upload_mb_;
  }

  void traced_layers(Layers& layers, SpanLedger& bench, const telemetry::MetricsSnapshot& before,
                     const telemetry::MetricsSnapshot& after, const BulkScan& warm,
                     std::size_t scans, Report& r) override {
    // The Router keeps its own tracers: one for router.scan and one per
    // shard for the engine spans. The i-th bench.scan encloses the i-th
    // router.scan, which encloses the i-th engine.scan of every shard. The
    // set-up's warm-up scan comes first in each tracer and is skipped.
    std::ostringstream json;
    if (Status s = router_->write_trace(json); !s) r.invalid("router trace: " + s.to_string());
    const auto processes = parse_chrome_trace(json.str());
    const auto events_of = [&](const std::string& process) {
      const auto it = processes.find(process);
      return it == processes.end() ? std::vector<telemetry::TraceEvent>{} : it->second;
    };
    const std::vector<telemetry::TraceEvent> router_events = events_of("cluster router");
    SpanLedger router_ledger(router_events, router_events.size() - scans);
    std::vector<std::string> prefixes;
    double engine_self = 0, run_self = 0, batch_self = 0, kernel_self = 0;
    for (std::uint32_t k = 0; k < router_->shard_count(); ++k) {
      const std::string shard_name = "shard " + std::to_string(k);
      const std::vector<telemetry::TraceEvent> events = events_of(shard_name + " host");
      const SpanLedger shard(events, events.size() / (scans + 1));
      if (!router_ledger.adopt("router.scan", shard, "engine.scan"))
        r.invalid(shard_name + " engine.scan spans do not pair with router.scan");
      check_spans(r, shard, shard_name);
      engine_self += shard.self_ns("engine.scan");
      run_self += shard.self_ns("pipeline.run");
      batch_self += shard.self_ns("pipeline.batch");
      kernel_self += shard.self_ns("kernel.simulate");
      prefixes.push_back("device." + std::to_string(k) + ".");
    }
    if (!bench.adopt("bench.scan", router_ledger, "router.scan"))
      r.invalid("router.scan spans do not pair with bench.scan");
    check_spans(r, router_ledger, "router");

    const auto n = static_cast<double>(scans);
    layers.set("router.scan_self_ms", router_ledger.self_ns("router.scan") / 1e6 / n);
    layers.set("kernel.simulate_ms", kernel_self / 1e6 / n);
    layers.set("pipeline.run_self_ms", run_self / 1e6 / n);
    layers.set("pipeline.batch_self_ms", batch_self / 1e6 / n);
    layers.set("engine.scan_self_ms", engine_self / 1e6 / n);
    pipeline_layers(layers, before, after, prefixes, n, kernel_self);
    const double worst = *std::max_element(warm.per_device_s.begin(), warm.per_device_s.end());
    double sum = 0;
    for (double d : warm.per_device_s) sum += d;
    layers.set("cluster.device_skew",
               ratio(worst, sum / static_cast<double>(warm.per_device_s.size())));
    layers.set("cluster.matches_merged", static_cast<double>(warm.matches.size()));
    layers.set("cluster.host_fallbacks", static_cast<double>(warm.host_fallbacks));
  }

 private:
  double upload_mb_ = 0;
  std::optional<cluster::Router> router_;
};

/// What a bulk workload plugs into the shared measurement loop.
struct BulkWorkload {
  std::string name;
  std::string text;
  std::vector<ac::Match> reference;  ///< normalized
  double reference_mbps = 0;
  std::function<std::unique_ptr<BulkSystem>(Sinks)> make;
};

struct SetupTiming {
  double create_ns = 0;
  double first_scan_ns = 0;
};

/// Creates the system and runs the warm-up scan, which also builds whatever
/// the system builds lazily (the Router's bulk engines).
std::unique_ptr<BulkSystem> bulk_setup(const BulkWorkload& w, Sinks sinks, Report& r,
                                       SetupTiming& timing, BulkScan& warm) {
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<BulkSystem> sys;
  {
    telemetry::Span span(sinks.tracer, "bench.create");
    sys = w.make(sinks);
  }
  const std::uint64_t t1 = now_ns();
  {
    telemetry::Span span(sinks.tracer, "bench.scan");
    Result<BulkScan> scan = sys->scan(w.text);
    r.attempt();
    if (!scan.is_ok()) {
      r.fail("warm-up scan: " + scan.status().to_string());
    } else {
      warm = std::move(scan).value();
      if (!same_matches(warm.matches, w.reference))
        r.fail("warm-up scan matches differ from ac::find_all");
    }
  }
  timing.create_ns = static_cast<double>(t1 - t0);
  timing.first_scan_ns = static_cast<double>(now_ns() - t1);
  return sys;
}

/// Timed scans until the deadline (at least three). Returns host-wall ns per
/// scan; checks every answer and every simulated figure against the warm-up.
std::vector<double> bulk_timed(const BulkWorkload& w, BulkSystem& sys, const BulkScan& warm,
                               double seconds, telemetry::Tracer* tracer, Report& r) {
  std::vector<double> wall_ns;
  const std::uint64_t deadline = deadline_after(seconds);
  while (wall_ns.size() < 3 || now_ns() < deadline) {
    telemetry::Span span(tracer, "bench.scan");
    const std::uint64_t t0 = now_ns();
    Result<BulkScan> scan = sys.scan(w.text);
    wall_ns.push_back(static_cast<double>(now_ns() - t0));
    r.attempt();
    if (!scan.is_ok()) {
      r.fail("scan: " + scan.status().to_string());
      continue;
    }
    if (!same_matches(scan.value().matches, w.reference))
      r.fail("scan matches differ from ac::find_all");
    if (scan.value().sim != warm.sim)
      r.invalid("simulated-clock figures drifted between scans of the same input");
  }
  return wall_ns;
}

int run_bulk(const Args& args, const BulkWorkload& w, Report& r) {
  const double mb = static_cast<double>(w.text.size()) / kMB;
  EndToEnd e2e;
  Layers layers;
  layers.set("ac.find_all_mbps", w.reference_mbps);

  if (!args.trace) {
    std::vector<double> setup_ns;
    std::unique_ptr<BulkSystem> sys;
    BulkScan warm;
    for (int i = 0; i < kSetupRepeats; ++i) {
      sys.reset();  // one system alive at a time keeps peak memory honest
      SetupTiming t;
      sys = bulk_setup(w, {}, r, t, warm);
      setup_ns.push_back(t.create_ns + t.first_scan_ns);
    }
    const std::vector<double> wall = bulk_timed(w, *sys, warm, args.seconds, nullptr, r);
    std::vector<double> mbps;
    for (double ns : wall) mbps.push_back(mb / (ns * 1e-9));
    e2e.setup_s = median(setup_ns) * 1e-9;
    e2e.device_mb = sys->device_mb();
    e2e.sim_gbps = ratio(static_cast<double>(w.text.size()) * 8.0 / 1e9, warm.makespan_s);
    e2e.host_mbps = median(mbps);
    // A bulk caller holds every alert when scan() returns, at the simulated
    // makespan; it offers input as fast as scans complete.
    e2e.alert_clock = kSimClock;
    e2e.alert_p50_ms = warm.makespan_s * 1e3;
    e2e.max_rate_mbps = e2e.host_mbps;
    e2e.emit(r);
    std::printf("%s: %zu timed scans of %.2f MB, %zu matches each\n", w.name.c_str(),
                wall.size(), mb, w.reference.size());
    return 0;
  }

  // Traced run: an untraced pass for the overhead base, then a traced pass.
  const double half = args.seconds / 2;
  SetupTiming untraced_setup;
  std::vector<double> untraced;
  BulkScan warm;
  {
    std::unique_ptr<BulkSystem> sys = bulk_setup(w, {}, r, untraced_setup, warm);
    untraced = bulk_timed(w, *sys, warm, half, nullptr, r);
  }
  telemetry::Tracer tracer;
  telemetry::MetricsRegistry registry;
  SetupTiming traced_setup;
  BulkScan traced_warm;
  std::unique_ptr<BulkSystem> sys =
      bulk_setup(w, {&registry, &tracer}, r, traced_setup, traced_warm);
  if (traced_warm.sim != warm.sim)
    r.invalid("telemetry changed the simulated-clock figures");
  const std::size_t setup_spans = tracer.event_count();
  const telemetry::MetricsSnapshot before = registry.snapshot();
  const std::vector<double> traced = bulk_timed(w, *sys, warm, half, &tracer, r);
  const telemetry::MetricsSnapshot after = registry.snapshot();

  SpanLedger ledger(tracer.events(), setup_spans);
  sys->traced_layers(layers, ledger, before, after, warm, traced.size(), r);
  check_spans(r, ledger, "bench");
  layers.set("setup.create_ms", untraced_setup.create_ns / 1e6);
  layers.set("setup.first_scan_ms", untraced_setup.first_scan_ns / 1e6);
  layers.set("trace.overhead_ratio", median(traced) / median(untraced));
  layers.emit(r);
  return 0;
}

}  // namespace

int run_bulk_dna_pfac(const Args& args, Report& r) {
  // 2 MB of order-2 Markov DNA (trained on a seeded random genome) and 2000
  // motifs of 12 bases drawn from it with 10% per-base mutation.
  constexpr std::size_t kBases = 2u << 20;
  BulkWorkload w;
  w.name = "bulk_dna_pfac";
  const workload::MarkovModel model(workload::make_dna_sequence(4096, args.seed));
  w.text = model.generate(kBases, args.seed + 1);
  const ac::PatternSet motifs =
      workload::extract_dna_motifs(w.text, 2000, 12, 0.10, args.seed + 2);
  const ac::Dfa dfa = compile(motifs);
  const std::uint64_t t0 = now_ns();
  w.reference = ac::find_all(dfa, w.text);
  w.reference_mbps = static_cast<double>(w.text.size()) / kMB /
                     (static_cast<double>(now_ns() - t0) * 1e-9);
  ac::normalize_matches(w.reference);

  EngineOptions opt;
  opt.variant = pipeline::KernelVariant::kPfac;
  opt.streams = 4;
  opt.batch_bytes = 1u << 20;
  w.make = [&motifs, opt](Sinks sinks) -> std::unique_ptr<BulkSystem> {
    return std::make_unique<EngineSystem>(motifs, opt, sinks);
  };
  return run_bulk(args, w, r);
}

int run_cluster_en_20k(const Args& args, Report& r) {
  // 4 MB of Markov English and 20k word-aligned patterns of 6-16 bytes
  // extracted from it, sharded over 4 simulated devices.
  constexpr std::size_t kBytes = 4u << 20;
  constexpr std::uint32_t kDevices = 4;
  BulkWorkload w;
  w.name = "cluster_en_20k";
  w.text = workload::make_corpus(kBytes, args.seed);
  workload::ExtractConfig ec;
  ec.count = 20000;
  ec.min_length = 6;
  ec.max_length = 16;
  ec.seed = args.seed + 1;
  ec.word_aligned = true;
  const ac::PatternSet patterns = workload::extract_patterns(w.text, ec);
  {
    const ac::Dfa dfa = compile(patterns);
    const std::uint64_t t0 = now_ns();
    w.reference = ac::find_all(dfa, w.text);
    w.reference_mbps = static_cast<double>(w.text.size()) / kMB /
                       (static_cast<double>(now_ns() - t0) * 1e-9);
    ac::normalize_matches(w.reference);
  }

  cluster::ClusterOptions opt;
  opt.devices = kDevices;
  opt.engine.variant = pipeline::KernelVariant::kShared;
  opt.engine.streams = 8;
  opt.background = false;
  double upload_mb = 0;
  {
    // A twin of one shard's device, to measure one automaton upload.
    DeviceOptions dopt;
    dopt.memory_bytes = opt.engine.device_memory_bytes;
    Result<Device> twin = Device::create(dopt);
    ACGPU_CHECK(twin.is_ok(), twin.status().to_string());
    Result<Engine> engine = Engine::create(twin.value(), patterns, opt.engine);
    ACGPU_CHECK(engine.is_ok(), engine.status().to_string());
    upload_mb = static_cast<double>(twin.value().memory().allocated()) / kMB;
  }
  w.make = [&patterns, opt, upload_mb](Sinks sinks) -> std::unique_ptr<BulkSystem> {
    return std::make_unique<RouterSystem>(patterns, opt, upload_mb, sinks);
  };
  return run_bulk(args, w, r);
}

// ---------------------------------------------------------------------------
// Stream workload: an open loop of 1 KB chunks over 64 sessions.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kSessions = 64;
constexpr std::size_t kChunk = 1024;
/// Rate ladder: each rung's rate in MB/s and its share of the run. A rung
/// passes when its alert p99 and its final drain stay within kLimitMs. The
/// rungs sit below the knee where superbatches start going to the
/// simulated GPU; kFixedRate is the rung the latency metrics are read on.
struct Rung {
  double rate_mbps;
  double share;
};
constexpr Rung kLadder[] = {{1.0, 0.25}, {2.0, 0.5}, {3.0, 0.25}};
constexpr double kFixedRate = 2.0;
constexpr double kLimitMs = 2.0;
/// Gap between poll sweeps while alerts are outstanding: small against the
/// latencies measured, large against a poll call (about 0.2 us).
constexpr std::uint64_t kPollGapNs = 5000;

struct SessionData {
  std::string_view text;
  std::vector<ac::Match> reference;  ///< normalized, session offsets
  std::vector<bool> alerting;        ///< per chunk: a reference match ends in it
  std::size_t fed = 0;               ///< chunks fed so far
  std::vector<ac::Match> got;        ///< accumulated poll output
  std::deque<std::pair<std::size_t, std::uint64_t>> outstanding;  ///< (chunk, due ns)
};

class StreamSystem {
 public:
  StreamSystem(const ac::PatternSet& patterns, Sinks sinks) {
    dispatch_dfa_ = std::make_unique<ac::Dfa>(compile(patterns));
    dispatch::DispatcherOptions dopt;
    dopt.cost.parallel_threads = 2;
    dopt.metrics = sinks.metrics;
    dispatcher_ = std::make_unique<dispatch::Dispatcher>(*dispatch_dfa_, dopt);
    Result<Device> device = Device::create();
    ACGPU_CHECK(device.is_ok(), device.status().to_string());
    device_ = std::make_unique<Device>(std::move(device).value());
    serve::ServeOptions sopt;
    sopt.device = device_.get();
    sopt.dispatcher = dispatcher_.get();
    sopt.background = true;
    sopt.max_sessions = kSessions;
    sopt.metrics = sinks.metrics;
    sopt.tracer = sinks.tracer;
    sopt.engine.telemetry.metrics = sinks.metrics;
    sopt.engine.telemetry.tracer = sinks.tracer;
    Result<serve::StreamService> service = serve::StreamService::create(patterns, sopt);
    ACGPU_CHECK(service.is_ok(), service.status().to_string());
    service_.emplace(std::move(service).value());
    for (std::size_t s = 0; s < kSessions; ++s) {
      Result<serve::SessionId> id = service_->open();
      ACGPU_CHECK(id.is_ok(), id.status().to_string());
      ids_.push_back(id.value());
    }
  }

  serve::StreamService& service() { return *service_; }
  dispatch::Dispatcher& dispatcher() { return *dispatcher_; }
  serve::SessionId id(std::size_t s) const { return ids_[s]; }
  double device_mb() const { return static_cast<double>(device_->memory().allocated()) / kMB; }

 private:
  // Declaration order is destruction order reversed: the service goes
  // before the device and the dispatcher it points at.
  std::unique_ptr<ac::Dfa> dispatch_dfa_;
  std::unique_ptr<dispatch::Dispatcher> dispatcher_;
  std::unique_ptr<Device> device_;
  std::optional<serve::StreamService> service_;
  std::vector<serve::SessionId> ids_;
};

/// Pins the calling thread, and so every thread it creates afterwards, to
/// the first CPU it may run on.
void pin_to_first_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(c, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
    return;
  }
}

/// One rung's measurements.
struct RungResult {
  double rate_mbps = 0;
  std::vector<std::pair<std::uint64_t, double>> alerts;  ///< (due ns, latency ms)
  std::vector<double> late_ms;
  double drain_ms = 0;   ///< drain after the rung's last feed
  double wall_s = 0;     ///< from the first due time until the drain ended
  double bytes = 0;
  double sim_seconds = 0;
  std::uint64_t failures = 0;
  std::uint64_t chunks = 0;
  std::uint64_t batches = 0;
  std::uint64_t feeds_rejected = 0;
  std::uint64_t max_queue_chunks = 0;  ///< lifetime maximum of the service
  std::uint64_t decisions[dispatch::kBackendCount] = {0, 0, 0};
  std::uint64_t mispredictions = 0;

  /// Input MB per host-wall second, due time to drained.
  double goodput_mbps() const { return ratio(bytes / kMB, wall_s); }
  std::uint64_t gpu_decisions() const {
    return decisions[static_cast<int>(dispatch::Backend::kGpuPipeline)];
  }

  std::vector<double> latencies() const {
    std::vector<double> out;
    for (const auto& a : alerts) out.push_back(a.second);
    return out;
  }
  double p50() const { return percentile(latencies(), 0.5); }
  /// Median over consecutive blocks of kBlock alerts (in due order) of each
  /// block's p99, so one stall of the virtual machine moves one block, not
  /// the run. Each block's p99 has at least ten samples beyond it.
  double p99() const {
    std::vector<std::pair<std::uint64_t, double>> sorted = alerts;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> block_p99;
    for (std::size_t b = 0; b + kBlock <= sorted.size(); b += kBlock) {
      const std::size_t end = b + 2 * kBlock > sorted.size() ? sorted.size() : b + kBlock;
      std::vector<double> block;
      for (std::size_t i = b; i < end; ++i) block.push_back(sorted[i].second);
      block_p99.push_back(percentile(block, 0.99));
    }
    return median(block_p99);
  }
  bool passed() const {
    return failures == 0 && alerts.size() >= kBlock && p99() <= kLimitMs && drain_ms <= kLimitMs &&
           percentile(late_ms, 0.99) <= kLimitMs;
  }

  static constexpr std::size_t kBlock = 2000;
};

class StreamDriver {
 public:
  StreamDriver(std::vector<SessionData>& sessions, Report& r) : sessions_(sessions), r_(r) {}

  /// Feeds chunk `fed` of every session, drains, and checks the answers so
  /// far: the set-up's warm-up.
  void warm_up(StreamSystem& sys) {
    for (SessionData& s : sessions_) {
      s.fed = 0;
      s.got.clear();
      s.outstanding.clear();
    }
    for (std::size_t s = 0; s < kSessions; ++s) feed(sys, s, now_ns(), nullptr);
    drain_and_collect(sys, nullptr);
  }

  RungResult run(StreamSystem& sys, double rate_mbps, double seconds, telemetry::Tracer* tracer) {
    RungResult out;
    out.rate_mbps = rate_mbps;
    const serve::ServiceStats stats_before = sys.service().stats();
    const dispatch::DispatchStats dispatch_before = sys.dispatcher().stats();
    const auto chunks = static_cast<std::uint64_t>(rate_mbps * kMB * seconds / kChunk);
    const double interval_ns = static_cast<double>(kChunk) / (rate_mbps * kMB) * 1e9;
    const std::uint64_t start = now_ns() + 1000000;
    const std::uint64_t failures_before = failures_;
    samples_ = &out.alerts;
    for (std::uint64_t i = 0; i < chunks;) {
      const std::uint64_t due = start + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
      std::uint64_t now = now_ns();
      if (now >= due) {
        out.late_ms.push_back(static_cast<double>(now - due) / 1e6);
        feed(sys, static_cast<std::size_t>(next_++ % kSessions), due, tracer);
        ++i;
        continue;
      }
      if (poll_outstanding(sys, tracer)) continue;
      // Spin rather than sleep: a sleeping thread's wake-up can lag by
      // milliseconds on a virtual CPU, which would be measured as latency.
      const std::uint64_t until =
          std::min<std::uint64_t>(due, now_ns() + (outstanding_ > 0 ? kPollGapNs : due));
      while (now_ns() < until) std::this_thread::yield();
    }
    const std::uint64_t fed_end = now_ns();
    drain_and_collect(sys, tracer);
    out.drain_ms = static_cast<double>(now_ns() - fed_end) / 1e6;
    samples_ = nullptr;
    out.chunks = chunks;
    out.bytes = static_cast<double>(chunks * kChunk);
    out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    out.failures = failures_ - failures_before;
    const serve::ServiceStats stats_after = sys.service().stats();
    const dispatch::DispatchStats dispatch_after = sys.dispatcher().stats();
    out.sim_seconds = stats_after.sim_scan_seconds - stats_before.sim_scan_seconds;
    out.batches = stats_after.batches - stats_before.batches;
    out.feeds_rejected = stats_after.feeds_rejected - stats_before.feeds_rejected;
    out.max_queue_chunks = stats_after.max_queue_depth_chunks;
    for (int b = 0; b < dispatch::kBackendCount; ++b)
      out.decisions[b] = dispatch_after.decisions[b] - dispatch_before.decisions[b];
    out.mispredictions = dispatch_after.mispredictions - dispatch_before.mispredictions;
    return out;
  }

  /// Compares every session's accumulated output with ac::find_all over
  /// the stream it was fed.
  void check(Report& r) {
    for (SessionData& s : sessions_) {
      r.attempt();
      const std::uint64_t fed_bytes = s.fed * kChunk;
      std::vector<ac::Match> expect;
      for (const ac::Match& m : s.reference)
        if (m.end < fed_bytes) expect.push_back(m);
      if (!same_matches(s.got, expect)) r.fail("session matches differ from ac::find_all");
    }
  }

 private:
  void feed(StreamSystem& sys, std::size_t s, std::uint64_t due, telemetry::Tracer* tracer) {
    SessionData& sd = sessions_[s];
    ACGPU_CHECK((sd.fed + 1) * kChunk <= sd.text.size(), "session stream too short");
    Status st;
    {
      telemetry::Span span(tracer, "bench.feed");
      st = sys.service().feed(sys.id(s), sd.text.substr(sd.fed * kChunk, kChunk));
    }
    r_.attempt();
    if (!st.is_ok()) {
      ++failures_;
      r_.fail("feed: " + st.to_string());
      return;
    }
    if (sd.alerting[sd.fed]) {
      sd.outstanding.emplace_back(sd.fed, due);
      ++outstanding_;
    }
    ++sd.fed;
  }

  /// Polls the sessions that have alerts outstanding; true when any arrived.
  bool poll_outstanding(StreamSystem& sys, telemetry::Tracer* tracer) {
    if (outstanding_ == 0) return false;
    bool progressed = false;
    for (std::size_t s = 0; s < kSessions; ++s)
      if (!sessions_[s].outstanding.empty()) progressed |= poll(sys, s, tracer);
    return progressed;
  }

  bool poll(StreamSystem& sys, std::size_t s, telemetry::Tracer* tracer) {
    SessionData& sd = sessions_[s];
    Result<std::vector<ac::Match>> got = [&] {
      telemetry::Span span(tracer, "bench.poll");
      return sys.service().poll(sys.id(s));
    }();
    const std::uint64_t now = now_ns();
    r_.attempt();
    if (!got.is_ok()) {
      ++failures_;
      r_.fail("poll: " + got.status().to_string());
      return false;
    }
    bool progressed = false;
    for (const ac::Match& m : got.value()) {
      sd.got.push_back(m);
      const std::size_t chunk = static_cast<std::size_t>(m.end / kChunk);
      // Matches arrive in stream order: an alerting chunk before this one
      // that saw no match is a missed alert, which check() reports.
      while (!sd.outstanding.empty() && sd.outstanding.front().first < chunk) {
        sd.outstanding.pop_front();
        --outstanding_;
      }
      if (!sd.outstanding.empty() && sd.outstanding.front().first == chunk) {
        if (samples_ != nullptr) {
          const std::uint64_t due = sd.outstanding.front().second;
          samples_->emplace_back(due, static_cast<double>(now - due) / 1e6);
        }
        sd.outstanding.pop_front();
        --outstanding_;
        progressed = true;
      }
    }
    return progressed;
  }

  void drain_and_collect(StreamSystem& sys, telemetry::Tracer* tracer) {
    r_.attempt();
    if (Status st = sys.service().drain(); !st) {
      ++failures_;
      r_.fail("drain: " + st.to_string());
    }
    for (std::size_t s = 0; s < kSessions; ++s) poll(sys, s, tracer);
    for (SessionData& sd : sessions_) {
      outstanding_ -= sd.outstanding.size();
      sd.outstanding.clear();
    }
  }

  std::vector<SessionData>& sessions_;
  Report& r_;
  std::uint64_t next_ = 0;
  std::size_t outstanding_ = 0;
  std::uint64_t failures_ = 0;
  std::vector<std::pair<std::uint64_t, double>>* samples_ = nullptr;
};

void rung_layers(Layers& layers, const RungResult& rung) {
  const auto decisions = [&](dispatch::Backend backend) {
    return static_cast<double>(rung.decisions[static_cast<int>(backend)]);
  };
  layers.set("serve.chunks_per_batch",
             ratio(static_cast<double>(rung.chunks), static_cast<double>(rung.batches)));
  layers.set("serve.max_queue_chunks", static_cast<double>(rung.max_queue_chunks));
  layers.set("serve.feeds_rejected", static_cast<double>(rung.feeds_rejected));
  layers.set("dispatch.cpu_decisions",
             decisions(dispatch::Backend::kSerialCpu) + decisions(dispatch::Backend::kParallelCpu));
  layers.set("dispatch.gpu_decisions", decisions(dispatch::Backend::kGpuPipeline));
  layers.set("dispatch.mispredictions", static_cast<double>(rung.mispredictions));
  layers.set("generator.late_ms", percentile(rung.late_ms, 0.99));
  layers.set("alert.samples", static_cast<double>(rung.alerts.size()));
}

}  // namespace

int run_stream_en_1k(const Args& args, Report& r) {
  double chunks_needed = 0;
  if (args.trace) {
    chunks_needed = kFixedRate * kMB * args.seconds / 2 / kChunk;
  } else {
    for (const Rung& rung : kLadder)
      chunks_needed += rung.rate_mbps * kMB * args.seconds * rung.share / kChunk;
  }
  const std::size_t per_session =
      (static_cast<std::size_t>(chunks_needed) / kSessions + 2) * kChunk;

  // 64 session streams of Markov English, sliced from one corpus, and 1000
  // word-aligned patterns of 6-16 bytes extracted from its first megabyte.
  const std::string corpus = workload::make_corpus(per_session * kSessions, args.seed);
  workload::ExtractConfig ec;
  ec.count = 1000;
  ec.min_length = 6;
  ec.max_length = 16;
  ec.seed = args.seed + 1;
  ec.word_aligned = true;
  const ac::PatternSet patterns = workload::extract_patterns(
      std::string_view(corpus).substr(0, std::min<std::size_t>(corpus.size(), 1u << 20)), ec);

  std::vector<SessionData> sessions(kSessions);
  Layers layers;
  {
    const ac::Dfa dfa = compile(patterns);
    const std::uint64_t t0 = now_ns();
    for (std::size_t s = 0; s < kSessions; ++s) {
      SessionData& sd = sessions[s];
      sd.text = std::string_view(corpus).substr(s * per_session, per_session);
      sd.reference = ac::find_all(dfa, sd.text);
      ac::normalize_matches(sd.reference);
    }
    layers.set("ac.find_all_mbps", static_cast<double>(corpus.size()) / kMB /
                                       (static_cast<double>(now_ns() - t0) * 1e-9));
  }
  for (SessionData& sd : sessions) {
    sd.alerting.assign(per_session / kChunk, false);
    for (const ac::Match& m : sd.reference) sd.alerting[m.end / kChunk] = true;
  }

  // The generator, the service's worker and the parallel-CPU backend's
  // threads share one core. The generator spins between chunks, so the
  // core never halts and the worker, woken on it, runs as soon as the
  // generator yields. With the worker on a core of its own, the alert p50
  // was 10-50% higher and moved by 15% from run to run: waking a halted
  // virtual CPU costs a variable tens of microseconds.
  pin_to_first_cpu();
  StreamDriver driver(sessions, r);
  const auto setup = [&](Sinks sinks, SetupTiming& t) {
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<StreamSystem> sys;
    {
      telemetry::Span span(sinks.tracer, "bench.create");
      sys = std::make_unique<StreamSystem>(patterns, sinks);
    }
    const std::uint64_t t1 = now_ns();
    driver.warm_up(*sys);
    t.create_ns = static_cast<double>(t1 - t0);
    t.first_scan_ns = static_cast<double>(now_ns() - t1);
    return sys;
  };

  if (!args.trace) {
    std::vector<double> setup_ns;
    std::unique_ptr<StreamSystem> sys;
    for (int i = 0; i < kSetupRepeats; ++i) {
      sys.reset();
      SetupTiming t;
      sys = setup({}, t);
      setup_ns.push_back(t.create_ns + t.first_scan_ns);
    }
    std::vector<RungResult> rungs;
    for (const Rung& rung : kLadder)
      rungs.push_back(driver.run(*sys, rung.rate_mbps, args.seconds * rung.share, nullptr));
    driver.check(r);
    EndToEnd e2e;
    e2e.device_mb = sys->device_mb();
    e2e.setup_s = median(setup_ns) * 1e-9;
    e2e.sim_clock = kModelClock;
    for (const RungResult& res : rungs) {
      const double p50 = res.p50(), p99 = res.p99();
      std::printf("rung %.1f MB/s: %zu alerts, p50 %.3f ms, block-median p99 %.3f ms "
                  "(pooled p99 %.3f ms), drain %.3f ms, generator p99 late %.3f ms, "
                  "goodput %.4f MB/s, %llu of %llu superbatches on the GPU -> %s\n",
                  res.rate_mbps, res.alerts.size(), p50, p99, percentile(res.latencies(), 0.99),
                  res.drain_ms, percentile(res.late_ms, 0.99), res.goodput_mbps(),
                  static_cast<unsigned long long>(res.gpu_decisions()),
                  static_cast<unsigned long long>(res.batches), res.passed() ? "pass" : "FAIL");
      if (res.passed()) e2e.max_rate_mbps = res.goodput_mbps();
      if (res.rate_mbps == kFixedRate) {
        if (res.alerts.size() < 2 * RungResult::kBlock)
          r.invalid("too few alerts at the fixed rate for a blocked p99");
        e2e.alert_p50_ms = p50;
        e2e.host_mbps = res.goodput_mbps();
        e2e.sim_gbps = ratio(res.bytes * 8.0 / 1e9, res.sim_seconds);
      }
    }
    e2e.emit(r);
    return 0;
  }

  // Traced run: the fixed rate untraced, then traced; the overhead is the
  // ratio of process CPU time over the same offered load.
  const double half = args.seconds / 2;
  SetupTiming untraced_setup;
  double untraced_cpu = 0;
  {
    std::unique_ptr<StreamSystem> sys = setup({}, untraced_setup);
    const double c0 = cpu_seconds();
    const RungResult untraced = driver.run(*sys, kFixedRate, half, nullptr);
    untraced_cpu = cpu_seconds() - c0;
    // The tail is read untraced; its run-to-run spread on a shared virtual
    // machine (up to 23%) is too wide for an end-to-end bound.
    layers.set("alert.p99_ms", untraced.p99());
    driver.check(r);
  }
  telemetry::Tracer tracer;
  telemetry::MetricsRegistry registry;
  SetupTiming traced_setup;
  std::unique_ptr<StreamSystem> sys = setup({&registry, &tracer}, traced_setup);
  const std::size_t setup_spans = tracer.event_count();
  const telemetry::MetricsSnapshot before = registry.snapshot();
  const double c0 = cpu_seconds();
  const RungResult res = driver.run(*sys, kFixedRate, half, &tracer);
  const double traced_cpu = cpu_seconds() - c0;
  const telemetry::MetricsSnapshot after = registry.snapshot();
  driver.check(r);

  const SpanLedger ledger(tracer.events(), setup_spans);
  check_spans(r, ledger, "stream");
  const auto batches = static_cast<double>(res.batches);
  engine_span_layers(layers, ledger, batches);
  pipeline_layers(layers, before, after, {""}, batches, ledger.self_ns("kernel.simulate"));
  layers.set("serve.superbatch_self_ms", ratio(ledger.self_ns("serve.superbatch") / 1e6, batches));
  layers.set("serve.feed_call_us",
             ratio(ledger.total_ns("bench.feed") / 1e3, static_cast<double>(ledger.count("bench.feed"))));
  layers.set("serve.poll_call_us",
             ratio(ledger.total_ns("bench.poll") / 1e3, static_cast<double>(ledger.count("bench.poll"))));
  rung_layers(layers, res);
  layers.set("setup.create_ms", untraced_setup.create_ns / 1e6);
  layers.set("setup.first_scan_ms", untraced_setup.first_scan_ns / 1e6);
  layers.set("trace.overhead_ratio", ratio(traced_cpu, untraced_cpu));
  layers.emit(r);
  return 0;
}

}  // namespace perfbench
