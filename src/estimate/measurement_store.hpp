// Shared measurement cache: ExperimentKey -> measured mean [s].
//
// One store backs every estimator in a run: plan execution inserts the
// measured summaries (including the data-dependent later stages, LMO's
// one-to-two orientations and PLogP's bisection midpoints), and fits read
// them back by key and nothing else. Serializes through obs::Json
// (doubles round-trip bit-exactly), so a store saved with
// --measurements-save can be reloaded later and re-fit offline with
// bit-identical model parameters.
//
// Thread-safe, and readers no longer serialize: the maps are guarded by a
// std::shared_mutex (shared for every read path, exclusive for writers),
// the hit/miss tallies are atomics, and high-QPS consumers can take an
// immutable published StoreSnapshot — a sorted structure-of-arrays view
// rebuilt lazily when the store's version counter moves — and read it
// lock-free for as long as they hold the shared_ptr.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "estimate/plan.hpp"
#include "obs/json.hpp"

namespace lmo::estimate {

inline constexpr const char* kMeasurementsSchema = "lmo.measurements/1";

/// Immutable point-in-time view of a MeasurementStore: keys sorted
/// ascending with values in lockstep (structure of arrays), clean and
/// quarantined entries in separate bands. A snapshot never changes after
/// publication — holders read it without any synchronization, and a store
/// mutation simply makes the next snapshot() call publish a fresh one.
struct StoreSnapshot {
  std::vector<ExperimentKey> keys;           ///< sorted ascending
  std::vector<double> values;                ///< values[i] belongs to keys[i]
  std::vector<ExperimentKey> suspect_keys;   ///< sorted, disjoint from keys
  std::vector<double> suspect_values;
  int cluster_size = 0;
  std::uint64_t cluster_seed = 0;
  std::uint64_t version = 0;  ///< store version this view was built from

  /// Binary-search lookup of a clean value. Uncounted.
  [[nodiscard]] std::optional<double> find(const ExperimentKey& key) const;
  [[nodiscard]] std::size_t size() const { return keys.size(); }
};

class MeasurementStore {
 public:
  MeasurementStore() = default;
  MeasurementStore(MeasurementStore&& other) noexcept;
  MeasurementStore& operator=(MeasurementStore&& other) noexcept;
  MeasurementStore(const MeasurementStore&) = delete;
  MeasurementStore& operator=(const MeasurementStore&) = delete;

  /// Insert a measured mean. First write wins: re-measuring a key a store
  /// already holds must not perturb fits that already consumed it. A clean
  /// measurement lifts any quarantine on the key.
  void insert(const ExperimentKey& key, double seconds);

  /// Record a poisoned measurement: `suspect_seconds` (must be finite) is
  /// the best effort recovery could produce but not trustworthy enough to
  /// cache. Quarantined keys report as lookup() misses — execute_plan
  /// re-measures them even on a warm store — while at() still serves the
  /// suspect value so offline fits degrade gracefully instead of
  /// throwing. A key with a clean value cannot be quarantined.
  void quarantine(const ExperimentKey& key, double suspect_seconds);

  /// Counted lookup: tallies a hit or a miss. Quarantined keys miss.
  [[nodiscard]] std::optional<double> lookup(const ExperimentKey& key) const;
  /// Uncounted containment check (clean values only).
  [[nodiscard]] bool contains(const ExperimentKey& key) const;
  /// Clean value, else the quarantined suspect value, else throws
  /// lmo::Error naming the missing experiment.
  [[nodiscard]] double at(const ExperimentKey& key) const;

  [[nodiscard]] std::size_t quarantined_count() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const { return hits_.load(); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.load(); }

  /// Fold another store (typically one shard of a sharded measurement
  /// campaign) into this one. Cluster provenance must agree (0 = unknown
  /// matches anything; the merged store keeps whichever side knows); a key
  /// held by both sides must carry the bit-identical value — shards of one
  /// deterministic campaign can never disagree, so a mismatch means the
  /// inputs come from different runs and throws lmo::Error naming the key.
  /// Quarantined entries merge too; a clean value on either side wins over
  /// the other side's suspect one.
  void merge_from(const MeasurementStore& other);

  /// Cluster provenance, recorded so a reloaded store can be checked
  /// against the world it is applied to. 0 = unknown.
  void set_cluster(int size, std::uint64_t seed);
  /// Bind the store to the cluster it is about to be applied to: unknown
  /// provenance (size 0) adopts `size` and `seed`; a known size or seed
  /// that differs throws lmo::Error naming both values.
  void bind_cluster(int size, std::uint64_t seed);
  [[nodiscard]] int cluster_size() const { return cluster_size_; }
  [[nodiscard]] std::uint64_t cluster_seed() const { return cluster_seed_; }

  /// Entries sorted by key (deterministic), values bit-exact. Quarantined
  /// entries carry "quarantined": true and round-trip as quarantined.
  [[nodiscard]] obs::Json to_json() const;
  [[nodiscard]] static MeasurementStore from_json(const obs::Json& j);

  /// Writes to_json() to `path` through obs::replace_file (temp file +
  /// rename), so a checkpoint cut short leaves the previous file whole.
  void save(const std::string& path) const;
  /// Throws lmo::Error naming `path` on unreadable, truncated, or garbage
  /// input; every entry value must be finite.
  [[nodiscard]] static MeasurementStore load(const std::string& path);

  /// Monotone mutation counter: bumped by insert/quarantine/merge_from/
  /// set_cluster and by move assignment. Equal versions imply identical
  /// contents within one store's lifetime.
  [[nodiscard]] std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Published immutable view. Served from a cache while the store is
  /// unchanged, rebuilt (under a shared read lock — concurrent with other
  /// readers) after any mutation. The returned snapshot is safe to read
  /// from any number of threads with no locking and stays valid after the
  /// store mutates or dies.
  [[nodiscard]] std::shared_ptr<const StoreSnapshot> snapshot() const;

 private:
  /// insert()/quarantine() with mu_ already held exclusively.
  void insert_locked(const ExperimentKey& key, double seconds);
  void quarantine_locked(const ExperimentKey& key, double suspect_seconds);

  /// Readers (lookup/contains/at/size/to_json/...) take shared ownership;
  /// writers (insert/quarantine/merge_from/...) take exclusive.
  mutable std::shared_mutex mu_;
  std::map<ExperimentKey, double> values_;
  /// Poisoned keys and their best-effort suspect values (disjoint from
  /// values_).
  std::map<ExperimentKey, double> suspects_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> version_{0};
  int cluster_size_ = 0;
  std::uint64_t cluster_seed_ = 0;

  /// Snapshot cache: snap_ is the view built at snap_version_. Guarded by
  /// its own mutex so snapshot() can be called from reader threads without
  /// blocking on (or being blocked by) map readers.
  mutable std::mutex snap_mu_;
  mutable std::shared_ptr<const StoreSnapshot> snap_;
};

}  // namespace lmo::estimate
