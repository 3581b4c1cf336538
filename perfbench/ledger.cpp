#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench.h"
#include "telemetry/json.h"

namespace perfbench {

void Report::set(const std::string& name, double value, const std::string& unit,
                 const std::string& clock) {
  if (!std::isfinite(value)) invalid(name + " is not a finite number");
  metrics_[name] = Entry{std::isfinite(value) ? value : 0.0, unit, clock};
}

void Report::fail(const std::string& what) {
  ++failed_;
  std::cerr << "acbench: FAILED: " << what << "\n";
}

void Report::invalid(const std::string& what) {
  ++invalid_;
  std::cerr << "acbench: INVALID: " << what << "\n";
}

void Report::print(std::string_view workload, bool traced) const {
  std::printf("%s (%s run): %llu operations, %llu failed, failed_ratio %.6g\n",
              std::string(workload).c_str(), traced ? "traced" : "untraced",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_));
  for (const auto& [name, e] : metrics_)
    std::printf("  %-30s %16.6f %-8s [%s]\n", name.c_str(), e.value,
                e.unit.c_str(), e.clock.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", e.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            e.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

SpanLedger::SpanLedger(const std::vector<acgpu::telemetry::TraceEvent>& events,
                       std::size_t skip) {
  spans_.reserve(events.size());
  for (const auto& e : events)
    spans_.push_back(Span{e.name, e.track, e.start_ns, e.dur_ns, e.id, e.parent, 0});
  std::sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.dur_ns > b.dur_ns;
  });
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans_.size(); ++i) by_id[spans_[i].id] = i;
  // Children of one span run on its thread, nested and one after another,
  // so the time they cover is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it != by_id.end()) spans_[it->second].child_ns += s.dur_ns;
  }
  spans_.erase(spans_.begin(),
               spans_.begin() + static_cast<std::ptrdiff_t>(std::min(skip, spans_.size())));
}

bool SpanLedger::adopt(std::string_view parent, const SpanLedger& children,
                       std::string_view child) {
  std::vector<const Span*> roots;
  for (const Span& s : children.spans_)
    if (s.name == child && s.parent == 0) roots.push_back(&s);
  std::vector<Span*> parents;
  for (Span& s : spans_)
    if (s.name == parent) parents.push_back(&s);
  if (roots.size() != parents.size()) return false;
  for (std::size_t i = 0; i < roots.size(); ++i) parents[i]->child_ns += roots[i]->dur_ns;
  return true;
}

double SpanLedger::self_ns(std::string_view name) const {
  double total = 0;
  for (const Span& s : spans_)
    if (s.name == name) total += static_cast<double>(s.dur_ns - std::min(s.child_ns, s.dur_ns));
  return total;
}

double SpanLedger::total_ns(std::string_view name) const {
  double total = 0;
  for (const Span& s : spans_)
    if (s.name == name) total += static_cast<double>(s.dur_ns);
  return total;
}

std::size_t SpanLedger::count(std::string_view name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) { return s.name == name; }));
}

std::vector<std::string> SpanLedger::overcovered() const {
  std::vector<std::string> out;
  for (const Span& s : spans_)
    if (s.child_ns > s.dur_ns)
      out.push_back(s.name + " (" + std::to_string(s.child_ns) + " ns of children in " +
                    std::to_string(s.dur_ns) + " ns)");
  return out;
}

std::map<std::string, std::vector<acgpu::telemetry::TraceEvent>> parse_chrome_trace(
    const std::string& json) {
  using acgpu::telemetry::JsonValue;
  std::map<std::string, std::vector<acgpu::telemetry::TraceEvent>> out;
  const std::optional<JsonValue> doc = acgpu::telemetry::parse_json(json);
  if (!doc) return out;
  const JsonValue* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) return out;

  std::map<double, std::string> process_names;
  for (const JsonValue& e : events->array()) {
    const JsonValue* ph = e.find("ph");
    const JsonValue* name = e.find("name");
    if (ph == nullptr || name == nullptr || !name->is_string()) continue;
    if (ph->string() == "M" && name->string() == "process_name") {
      const JsonValue* args = e.find("args");
      const JsonValue* pname = args != nullptr ? args->find("name") : nullptr;
      if (pname != nullptr && pname->is_string())
        process_names[e.number_at("pid").value_or(0)] = pname->string();
    }
  }
  for (const JsonValue& e : events->array()) {
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->string() != "X") continue;
    const JsonValue* args = e.find("args");
    const JsonValue* span_id = args != nullptr ? args->find("span_id") : nullptr;
    if (span_id == nullptr) continue;  // simulated-device slices carry no span id
    const JsonValue* parent = args->find("parent_span_id");
    acgpu::telemetry::TraceEvent ev;
    ev.name = e.find("name")->string();
    ev.track = static_cast<std::uint64_t>(e.number_at("tid").value_or(0));
    ev.start_ns = static_cast<std::uint64_t>(std::llround(e.number_at("ts").value_or(0) * 1e3));
    ev.dur_ns = static_cast<std::uint64_t>(std::llround(e.number_at("dur").value_or(0) * 1e3));
    ev.id = std::stoull(span_id->string());
    ev.parent = parent != nullptr ? std::stoull(parent->string()) : 0;
    out[process_names[e.number_at("pid").value_or(0)]].push_back(std::move(ev));
  }
  return out;
}

}  // namespace perfbench
