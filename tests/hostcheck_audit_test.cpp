// End-to-end audit tests: the REAL pipeline and serve layers, driven under
// the Recorder over oracle workloads, must be hazard-free on conformant
// staging geometries — the pipeline's lease/wait_until handshake orders
// every conflicting access by construction, and the audit proves it (the
// broken-schedule tests prove the auditor is not simply blind).
#include "hostcheck/audit.h"

#include <gtest/gtest.h>

#include "hostcheck/recorder.h"
#include "oracle/workload_gen.h"
#include "pipeline/engine.h"
#include "telemetry/metrics_registry.h"

namespace acgpu::hostcheck {
namespace {

oracle::CompiledWorkload workload(std::uint64_t seed, std::uint64_t i) {
  return oracle::CompiledWorkload(oracle::generate_workload(seed, i));
}

TEST(HostcheckAudit, ConfigNamesRoundTrip) {
  EXPECT_EQ(to_string(HostAuditConfig{2, 4, true}), "s2-d4-split");
  EXPECT_EQ(to_string(HostAuditConfig{8, 1, false}), "s8-d1-shared");
  EXPECT_EQ(default_config_matrix().size(), 4u * 3u * 2u);
}

TEST(HostcheckAudit, ConformantPipelineAuditsCleanAcrossGeometries) {
  const oracle::CompiledWorkload w = workload(11, 0);
  for (const HostAuditConfig& config :
       {HostAuditConfig{1, 1, true}, HostAuditConfig{2, 2, true},
        HostAuditConfig{4, 2, false}, HostAuditConfig{8, 8, true}}) {
    const HostAuditOutcome outcome = audit_pipeline(w, config);
    EXPECT_TRUE(outcome.report.clean())
        << to_string(config) << ": " << outcome.report.total_hazards()
        << " hazard(s)";
    EXPECT_TRUE(outcome.matches_ok) << to_string(config);
    // The audit saw real work: ops on the timeline, annotated accesses, and
    // upload + readback leases all balanced by releases.
    EXPECT_GT(outcome.report.ops, 0u) << to_string(config);
    EXPECT_GT(outcome.report.accesses, 0u) << to_string(config);
    EXPECT_GT(outcome.report.leases, 0u) << to_string(config);
    EXPECT_EQ(outcome.report.leases, outcome.report.releases)
        << to_string(config);
  }
}

TEST(HostcheckAudit, RepeatedScansOnOneEngineStayClean) {
  // Back-to-back scans recycle the device arena, so the second scan's pools
  // land on the first scan's addresses — the analyzer must attribute each
  // access to the pool that is live at that point, not the dead one.
  const oracle::CompiledWorkload w = workload(13, 1);
  Recorder recorder;
  EngineOptions eo;
  eo.batch_bytes = 1024;
  eo.match_capacity = 4096;
  DeviceOptions dopt;
  dopt.host_observer = &recorder;
  Result<Device> device = Device::create(dopt);
  ASSERT_TRUE(device.is_ok()) << device.status().message();
  Result<Engine> engine = Engine::create(device.value(), w.patterns(), eo);
  ASSERT_TRUE(engine.is_ok()) << engine.status().message();
  for (int scan = 0; scan < 3; ++scan)
    ASSERT_TRUE(engine.value().scan(w.text()).is_ok());
  const HostAuditReport report = analyze(recorder.trace());
  EXPECT_TRUE(report.clean()) << report.total_hazards() << " hazard(s)";
  EXPECT_EQ(report.sims, 3u);
}

TEST(HostcheckAudit, ServeLayerAuditsCleanAndExercisesTheLocks) {
  const HostAuditOutcome outcome = audit_serve(workload(11, 2));
  EXPECT_TRUE(outcome.report.clean())
      << outcome.report.total_hazards() << " hazard(s)";
  EXPECT_TRUE(outcome.matches_ok);
  // The tracked serve/scheduler/session-manager mutexes really recorded:
  // lock events happened and nesting produced order edges — with no cycle.
  EXPECT_GT(outcome.report.lock_events, 0u);
  EXPECT_GT(outcome.report.mutexes, 0u);
  EXPECT_GT(outcome.report.lock_edges, 0u);
  EXPECT_EQ(outcome.report.count(HazardKind::kLockOrderCycle), 0u);
}

TEST(HostcheckAudit, SweepMergesAcrossWorkloadsAndIncludesServe) {
  const std::vector<HostAuditConfig> configs = {HostAuditConfig{2, 2, true}};
  const std::vector<HostSweepResult> results =
      audit_conformance(/*seed=*/11, /*iterations=*/2, configs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "pipeline s2-d2-split");
  EXPECT_EQ(results[1].name, "serve");
  for (const HostSweepResult& r : results) {
    EXPECT_EQ(r.workloads, 2u) << r.name;
    EXPECT_EQ(r.mismatches, 0u) << r.name;
    EXPECT_TRUE(r.report.clean()) << r.name;
  }
}

TEST(HostcheckAudit, PublishesHostcheckSeries) {
  const HostAuditOutcome outcome =
      audit_pipeline(workload(11, 0), HostAuditConfig{2, 2, true});
  telemetry::MetricsRegistry registry;
  publish(outcome.report, registry);
  const telemetry::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_TRUE(snapshot.value("hostcheck.hazards").has_value());
  EXPECT_EQ(snapshot.value("hostcheck.hazards"), 0.0);
  EXPECT_TRUE(snapshot.value("hostcheck.ops").has_value());
  EXPECT_TRUE(snapshot.value("hostcheck.hazard.use_after_release").has_value());
}

}  // namespace
}  // namespace acgpu::hostcheck
