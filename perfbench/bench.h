// Shared pieces of the acbench driver: the command-line arguments, the
// result report printed as the run's last line, small statistics helpers,
// and the span ledger that turns trace spans into per-layer self times.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// The run's outcome: every metric by name with its unit and clock, the
/// operation census, and whether every answer matched its reference.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& clock);
  /// Counts `n` operations (scans, feeds, polls checked against a reference).
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records a failed or refused operation, or an answer that differs from
  /// the reference. Any failure makes the run incorrect.
  void fail(const std::string& what);
  /// Records a broken invariant of the benchmark itself (a simulated value
  /// that drifted, a span whose children outgrow it).
  void invalid(const std::string& what);
  bool correct() const { return failed_ == 0 && invalid_ == 0; }

  /// Human-readable table, then the one-line JSON result (last line).
  void print(std::string_view workload, bool traced) const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
    std::string clock;
  };
  std::map<std::string, Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t invalid_ = 0;
};

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);
/// Peak resident set size of this process.
double peak_rss_mb();
/// Process CPU time (user + system) in seconds.
double cpu_seconds();

/// Per-layer self time: a span's duration minus the time its direct
/// children cover. Children are found through the tracer's parent links;
/// spans recorded by different tracers (the Router keeps one per shard) are
/// joined with adopt().
class SpanLedger {
 public:
  struct Span {
    std::string name;
    std::uint64_t track = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t child_ns = 0;  ///< time covered by direct children
  };

  /// One tracer's completed spans. The `skip` earliest-starting spans
  /// (warm-up and set-up work) are linked to their children and then
  /// dropped from every total.
  explicit SpanLedger(const std::vector<acgpu::telemetry::TraceEvent>& events,
                      std::size_t skip = 0);
  SpanLedger() = default;

  /// Makes the i-th root span named `child` of `children` a child of the
  /// i-th span named `parent` here (the same request seen by two tracers).
  /// Returns false when the two sequences differ in length.
  bool adopt(std::string_view parent, const SpanLedger& children,
             std::string_view child);

  /// Total self time and total duration of the spans named `name`.
  double self_ns(std::string_view name) const;
  double total_ns(std::string_view name) const;
  std::size_t count(std::string_view name) const;
  /// Spans whose children cover more time than the span itself.
  std::vector<std::string> overcovered() const;

 private:
  std::vector<Span> spans_;
};

/// Parses the host spans of the Chrome trace a cluster::Router writes, per
/// process name ("cluster router", "shard 0 host", ...). Timestamps are
/// relative to each process's own tracer.
std::map<std::string, std::vector<acgpu::telemetry::TraceEvent>> parse_chrome_trace(
    const std::string& json);

int run_bulk_dna_pfac(const Args& args, Report& report);
int run_cluster_en_20k(const Args& args, Report& report);
int run_stream_en_1k(const Args& args, Report& report);

}  // namespace perfbench
