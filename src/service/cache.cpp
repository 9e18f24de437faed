#include "service/cache.hpp"

#include <sstream>

#include "ctmc/steady_state.hpp"
#include "uml/layout.hpp"
#include "util/strings.hpp"
#include "xml/write.hpp"

namespace choreo::service {

std::string cache_key(const xml::Document& project,
                      const chor::AnalysisOptions& options) {
  // The Poseidon preprocessor's split: drawing-tool layout cannot affect
  // analysis results, so it must not affect the key either.
  return cache_key_for_model(uml::preprocess(project).model, options);
}

std::string cache_key_for_model(const xml::Document& model,
                                const chor::AnalysisOptions& options) {
  xml::WriteOptions compact;
  compact.indent = 0;
  compact.declaration = false;
  std::string key = xml::to_string(model, compact);
  key += '\n';
  key += options_key(options);
  return key;
}

std::string options_key(const chor::AnalysisOptions& options) {
  std::ostringstream key;
  key << "solver=" << ctmc::method_name(options.solver.method)
      << " tolerance=" << util::format_double(options.solver.tolerance)
      << " max_iterations=" << options.solver.max_iterations
      << " relaxation=" << util::format_double(options.solver.relaxation)
      << " dense_cutoff=" << options.solver.dense_cutoff
      << " default_rate=" << util::format_double(options.default_rate)
      << " max_states=" << options.max_states
      // Keying the aggregation level keeps quotient-direct artifacts
      // (exact: quotient-sized counts, canonical representatives) from
      // ever colliding with full-chain or fluid results.
      << " aggregation=" << static_cast<int>(options.aggregation);
  // The fluid knobs shape results only at the fluid level; keying them
  // unconditionally would split identical exact analyses apart.
  if (options.aggregation == chor::Aggregation::kFluid) {
    key << " fluid_rel_tol=" << util::format_double(options.fluid_rel_tol)
        << " fluid_abs_tol=" << util::format_double(options.fluid_abs_tol)
        << " fluid_t_end=" << util::format_double(options.fluid_t_end);
  }
  // derive_threads is deliberately absent: exploration is deterministic, so
  // results at any lane count are interchangeable cache-wise.
  // Rates apply in file order (later assignments win), so the order is
  // part of the content.
  for (const auto& [activity, rate] : options.rates) {
    key << " rate:" << activity << '=' << util::format_double(rate);
  }
  return std::move(key).str();
}

std::uint64_t fingerprint(const std::string& key) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  for (const unsigned char byte : key) {
    hash ^= byte;
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

ResultCache::ResultCache(const CacheOptions& options)
    : max_bytes_(options.max_bytes),
      hits_((options.registry ? *options.registry : Registry::global())
                .counter("choreo_cache_hits_total",
                         "Analyses served from the result cache")),
      misses_((options.registry ? *options.registry : Registry::global())
                  .counter("choreo_cache_misses_total",
                           "Analyses that had to run the pipeline")),
      evictions_((options.registry ? *options.registry : Registry::global())
                     .counter("choreo_cache_evictions_total",
                              "Entries dropped to stay within the byte "
                              "budget")),
      oversize_((options.registry ? *options.registry : Registry::global())
                    .counter("choreo_cache_oversize_total",
                             "put() calls rejected because one entry "
                             "exceeds the whole byte budget")),
      bytes_gauge_((options.registry ? *options.registry : Registry::global())
                       .gauge("choreo_cache_bytes",
                              "Bytes currently held by the result cache")),
      entries_gauge_((options.registry ? *options.registry : Registry::global())
                         .gauge("choreo_cache_entries",
                                "Entries currently held by the result "
                                "cache")) {}

std::optional<CachedAnalysis> ResultCache::get(const std::string& key) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.increment();
    return std::nullopt;
  }
  hits_.increment();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->analysis;
}

namespace {

std::size_t node_bytes(const xml::Node& node) {
  std::size_t bytes = sizeof(node) + node.name().size() +
                      node.content().size();
  for (const xml::Attribute& attribute : node.attributes()) {
    bytes += attribute.name.size() + attribute.value.size();
  }
  for (const xml::Node& child : node.children()) {
    bytes += node_bytes(child);
  }
  return bytes;
}

}  // namespace

std::size_t ResultCache::entry_bytes(const std::string& key,
                                     const CachedAnalysis& analysis) {
  std::size_t bytes =
      key.size() + sizeof(Entry) + node_bytes(analysis.reflected_model.root());
  for (const auto& graph : analysis.report.activity_graphs) {
    bytes += graph.graph_name.size() + sizeof(graph);
    for (const auto& [name, value] : graph.throughputs) {
      bytes += name.size() + sizeof(value);
    }
  }
  for (const auto& machines : analysis.report.state_machines) {
    bytes += sizeof(machines);
    for (const auto& row : machines.probabilities) {
      bytes += row.size() * sizeof(double);
    }
    for (const auto& [name, value] : machines.throughputs) {
      bytes += name.size() + sizeof(value);
    }
  }
  return bytes;
}

void ResultCache::put(const std::string& key, const CachedAnalysis& analysis) {
  const std::size_t bytes = entry_bytes(key, analysis);
  std::lock_guard lock(mutex_);
  if (bytes > max_bytes_) {
    // Dropped silently before: the counter makes an over-budget entry
    // observable, and the gauges are refreshed so they never go stale on
    // a cache that only ever sees oversize entries.
    oversize_.increment();
    bytes_gauge_.set(static_cast<std::int64_t>(bytes_));
    entries_gauge_.set(static_cast<std::int64_t>(lru_.size()));
    return;
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Entry{key, analysis, bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  evict_until_within_budget();
  bytes_gauge_.set(static_cast<std::int64_t>(bytes_));
  entries_gauge_.set(static_cast<std::int64_t>(lru_.size()));
}

void ResultCache::evict_until_within_budget() {
  while (bytes_ > max_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_.increment();
  }
}

std::size_t ResultCache::entry_count() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

std::size_t ResultCache::byte_count() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

}  // namespace choreo::service
