// Content-addressed result cache for the analysis service.
//
// Designers iterate: they nudge a box in the drawing tool, save, and
// re-submit a project whose *model* content is unchanged.  The cache key
// therefore canonicalises exactly the way the paper's Poseidon
// preprocessor does — the project is split into metamodel content and tool
// layout, and only the metamodel half (plus the analysis options that can
// change results) is keyed.  Layout-only edits are cache hits; any change
// to structure, rates, stereotypes or solver settings is a miss.
//
// Symmetrically, entries store the *reflected model document* (the
// pipeline output before the postprocessor re-merges layout) rather than
// the final annotated project: on a hit the scheduler merges the
// requester's own layout, so a designer never receives somebody else's
// diagram arrangement back.
//
// Entries are evicted least-recently-used under a byte budget.
// Hit/miss/eviction counters and byte/entry gauges are kept in a metrics
// Registry.  All operations are thread-safe.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "choreographer/pipeline.hpp"
#include "service/metrics.hpp"
#include "xml/dom.hpp"

namespace choreo::service {

/// What one successful analysis contributes to the cache: the report plus
/// the reflected (annotated, layout-free) model document.
struct CachedAnalysis {
  chor::AnalysisReport report;
  xml::Document reflected_model;
  /// The aggregation level that produced the report: deeper than the level
  /// in the entry's key when the retry ladder descended.
  chor::Aggregation aggregation = chor::Aggregation::kNone;
};

/// The canonical cache key of a (project, options) pair: the layout-
/// stripped model XMI serialised compactly, concatenated with a
/// deterministic rendering of every result-affecting AnalysisOption.
/// Keys compare by content, so two projects that differ only in tool
/// layout share a key.
std::string cache_key(const xml::Document& project,
                      const chor::AnalysisOptions& options);

/// As cache_key, for a document whose layout is already stripped (the
/// `model` half of uml::preprocess).
std::string cache_key_for_model(const xml::Document& model,
                                const chor::AnalysisOptions& options);

/// The deterministic rendering of every result-affecting AnalysisOption
/// that ends every key: a pipeline key appends it to the model XMI, a sweep
/// point's key to the model's structure and rate fingerprints.
std::string options_key(const chor::AnalysisOptions& options);

/// 64-bit FNV-1a fingerprint of a key, for display and logs.
std::uint64_t fingerprint(const std::string& key);

struct CacheOptions {
  /// Byte budget for stored entries (key + serialised reflected model +
  /// report).
  std::size_t max_bytes = 256 << 20;
  /// Where hit/miss/eviction counters live; nullptr means the global
  /// registry.
  Registry* registry = nullptr;
};

class ResultCache {
 public:
  explicit ResultCache(const CacheOptions& options = {});

  /// Returns a copy of the cached analysis and refreshes its recency, or
  /// nullopt on miss.  Counts a hit or a miss either way.
  std::optional<CachedAnalysis> get(const std::string& key);

  /// Stores (or replaces) the entry, then evicts least-recently-used
  /// entries until the budget holds.  An entry larger than the whole
  /// budget is not stored.
  void put(const std::string& key, const CachedAnalysis& analysis);

  std::size_t entry_count() const;
  std::size_t byte_count() const;

 private:
  static std::size_t entry_bytes(const std::string& key,
                                 const CachedAnalysis& analysis);
  /// Called with mutex_ held.
  void evict_until_within_budget();

  struct Entry {
    std::string key;
    CachedAnalysis analysis;
    std::size_t bytes = 0;
  };

  mutable std::mutex mutex_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  /// Most-recently-used first.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;

  Counter& hits_;
  Counter& misses_;
  Counter& evictions_;
  Counter& oversize_;
  Gauge& bytes_gauge_;
  Gauge& entries_gauge_;
};

}  // namespace choreo::service
