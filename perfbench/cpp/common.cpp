#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order; BENCHMARK.json lists the same
/// names and units (perfbench/selftest.py checks that they agree).
constexpr MetricSpec kPerLayerMetrics[] = {
    {"xml.parse_ms", "ms"},
    {"xml.parse_mb_per_s", "MB/s"},
    {"xml.write_ms", "ms"},
    {"uml.preprocess_ms", "ms"},
    {"uml.from_xmi_ms", "ms"},
    {"uml.to_xmi_ms", "ms"},
    {"uml.postprocess_ms", "ms"},
    {"choreographer.extract_ms", "ms"},
    {"choreographer.measure_reflect_ms", "ms"},
    {"service.cache_key_ms", "ms"},
    {"service.cache.hit_ratio", "ratio"},
    {"service.cache.hits", "count"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p99", "ms"},
    {"service.run_ms_p50", "ms"},
    {"service.attempts_per_job", "1/job"},
    {"pepa.derive_ms", "ms"},
    {"pepanet.derive_ms", "ms"},
    {"pepa.derive.states_per_s", "1/s"},
    {"pepa.derive.transitions_per_s", "1/s"},
    {"pepa.derive.rss_growth_bytes_per_state", "B/state"},
    {"explore.states", "count"},
    {"explore.transitions", "count"},
    {"explore.levels", "count"},
    {"explore.peak_frontier", "count"},
    {"explore.dedup_hit_ratio", "ratio"},
    {"explore.canonical_rewrites", "count"},
    {"pepa.quotient.blocks", "count"},
    {"pepa.quotient.transitions", "count"},
    {"pepa.quotient.transitions_per_block", "ratio"},
    {"ctmc.generator_ms", "ms"},
    {"ctmc.generator.nnz", "count"},
    {"ctmc.solve_ms", "ms"},
    {"ctmc.solve.iterations", "count"},
    {"ctmc.solve.residual_max", "1/s"},
    {"ctmc.solve.dense_lu_share", "ratio"},
    {"pepa.measures_ms", "ms"},
    {"sweep.derive_once_ms", "ms"},
    {"sweep.rebind_us_per_point", "us"},
    {"sweep.generator_us_per_point", "us"},
    {"sweep.solve_us_per_point", "us"},
    {"sweep.measures_us_per_point", "us"},
    {"sweep.derivations", "count"},
    {"trace.ops_per_s_untraced", "1/s"},
    {"trace.ops_per_s_traced", "1/s"},
    {"trace.unattributed_share", "ratio"},
};

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return 1;
}

double peak_rss_mb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
}

double Rng::jitter(double base, double spread) {
  return base * std::exp(uniform(-1.0, 1.0) * std::log(spread));
}

void Fingerprint::add(std::string_view bytes) {
  for (const unsigned char byte : bytes) {
    hash_ ^= byte;
    hash_ *= 1099511628211ull;
  }
}

void Fingerprint::add(double value) { add(exact(value)); }

void Fingerprint::add(std::uint64_t value) { add(std::to_string(value)); }

std::string Fingerprint::hex() const {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

std::string exact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(position));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

Trace::Scope::Scope(Trace& trace, const char* name) : trace_(trace) {
  if (trace_.enabled_) index_ = trace_.open(name);
}

Trace::Scope::~Scope() {
  if (trace_.enabled_) trace_.close(index_);
}

Trace::OpScope::OpScope(Trace& trace) : trace_(trace) {
  if (!trace_.enabled_) return;
  ++trace_.ops_;
  index_ = trace_.open("unattributed");
}

Trace::OpScope::~OpScope() {
  if (trace_.enabled_) trace_.close(index_);
}

std::size_t Trace::open(const char* name) {
  const std::size_t parent = stack_.empty() ? kNone : stack_.back();
  spans_.push_back(Span{name, ops_, parent, seconds_since(origin_), 0.0});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Trace::close(std::size_t index) {
  spans_[index].end = seconds_since(origin_);
  stack_.pop_back();
}

std::map<std::string, Trace::Layer> Trace::layers() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNone) child_seconds[span.parent] += span.end - span.start;
  }
  std::map<std::string, Layer> summary;
  std::map<std::string, std::set<std::size_t>> ops;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Layer& layer = summary[span.name];
    layer.self_seconds += span.end - span.start - child_seconds[i];
    ops[span.name].insert(span.op);
  }
  for (auto& [name, layer] : summary) layer.ops = ops[name].size();
  return summary;
}

double Trace::op_seconds() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == kNone) total += span.end - span.start;
  }
  return total;
}

double Trace::total_self_seconds(const std::string& name) const {
  const auto summary = layers();
  const auto it = summary.find(name);
  return it == summary.end() ? 0.0 : it->second.self_seconds;
}

void Trace::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"op\": " << span.op << ", \"parent\": "
        << (span.parent == kNone ? std::string("null")
                                 : std::to_string(span.parent))
        << ", \"start_s\": " << exact(span.start)
        << ", \"end_s\": " << exact(span.end) << "}\n";
  }
}

void Report::info(const std::string& line) const {
  std::cout << "# " << line << std::endl;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

void Report::check_failed(const std::string& what) {
  ++check_failures_;
  std::cerr << "perfbench: check failed: " << what << std::endl;
}

int Report::emit() const {
  const bool correct = failed_ == 0 && check_failures_ == 0 && attempted_ > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(attempted_, 1)
            << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    std::cout << (i == 0 ? "" : ", ") << '"' << name << "\": {\"value\": "
              << exact(value_unit.first) << ", \"unit\": \""
              << value_unit.second << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

double Window::seconds() const {
  double total = 0.0;
  for (const double round : round_seconds) total += round;
  return total;
}

double Window::ops_per_s() const {
  return static_cast<double>(ops_per_round) / quantile(round_seconds, 0.5);
}

void report_end_to_end(Report& report, double setup_seconds,
                       const Window& window,
                       const std::vector<double>& latencies_seconds,
                       std::size_t rounds_per_p99) {
  report.metric("setup_s", setup_seconds, "s");
  report.metric("ops_per_s", window.ops_per_s(), "1/s");
  // The median over groups of `rounds` consecutive rounds of each group's
  // percentile: every round runs the same ops, and a burst of machine noise
  // moves only the groups it falls in.
  auto over_groups = [&](double q, std::size_t rounds) {
    std::vector<double> per_group;
    const std::size_t n = window.ops_per_round * rounds;
    for (std::size_t begin = 0; begin + n <= latencies_seconds.size();
         begin += n) {
      per_group.push_back(quantile(
          std::vector<double>(latencies_seconds.begin() + begin,
                              latencies_seconds.begin() + begin + n),
          q));
    }
    // A window shorter than one group (quick mode) is one group.
    if (per_group.empty()) return quantile(latencies_seconds, q);
    return quantile(per_group, 0.50);
  };
  report.metric("latency_p50_ms", over_groups(0.50, 1) * 1e3, "ms");
  report.metric("latency_p99_ms", over_groups(0.99, rounds_per_p99) * 1e3,
                "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  const std::size_t groups = window.round_seconds.size() / rounds_per_p99;
  report.info("ops " + std::to_string(window.ops()) + " in " +
              std::to_string(window.round_seconds.size()) + " rounds, " +
              exact(window.seconds()) +
              " s; latency_p99_ms is the median of the p99 of " +
              std::to_string(std::max<std::size_t>(groups, 1)) +
              " groups of " + std::to_string(rounds_per_p99) +
              " rounds, each with " +
              std::to_string(window.ops_per_round * rounds_per_p99 / 100) +
              " samples beyond it");
}

void add_trace_summary(LayerValues& values, const Trace& trace,
                       double untraced_ops_per_s, double traced_ops_per_s) {
  // "<span>_ms", where that is a per-layer metric: the span's self time per
  // op that recorded it.
  for (const auto& [span, layer] : trace.layers()) {
    const std::string name = span + "_ms";
    const bool listed = std::any_of(
        std::begin(kPerLayerMetrics), std::end(kPerLayerMetrics),
        [&](const MetricSpec& spec) { return name == spec.name; });
    if (listed && values.count(name) == 0) {
      values[name] = layer.self_seconds * 1e3 / static_cast<double>(layer.ops);
    }
  }
  values["trace.ops_per_s_untraced"] = untraced_ops_per_s;
  values["trace.ops_per_s_traced"] = traced_ops_per_s;
  const double op_seconds = trace.op_seconds();
  values["trace.unattributed_share"] =
      op_seconds > 0.0 ? trace.total_self_seconds("unattributed") / op_seconds
                       : 0.0;
}

void report_per_layer(Report& report, const LayerValues& values) {
  std::set<std::string> known;
  for (const MetricSpec& spec : kPerLayerMetrics) {
    known.insert(spec.name);
    const auto it = values.find(spec.name);
    report.metric(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
  for (const auto& [name, value] : values) {
    if (known.count(name) == 0) {
      report.check_failed("internal: per-layer metric '" + name +
                          "' is not in the canonical list");
    }
  }
}

void dump_trace(const Context& context, const Trace& trace) {
  const std::string path = context.args.work_dir + "/trace-" +
                           context.args.workload + "-" +
                           std::to_string(context.args.seed) + ".jsonl";
  trace.write_jsonl(path);
  context.report.info("spans: " + path);
}

}  // namespace perfbench
