#include "estimate/measurement_store.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace lmo::estimate {

std::optional<double> StoreSnapshot::find(const ExperimentKey& key) const {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || key < *it) return std::nullopt;
  return values[std::size_t(it - keys.begin())];
}

MeasurementStore::MeasurementStore(MeasurementStore&& other) noexcept {
  std::unique_lock lk(other.mu_);
  values_ = std::move(other.values_);
  suspects_ = std::move(other.suspects_);
  hits_.store(other.hits_.load());
  misses_.store(other.misses_.load());
  version_.store(other.version_.load());
  cluster_size_ = other.cluster_size_;
  cluster_seed_ = other.cluster_seed_;
}

MeasurementStore& MeasurementStore::operator=(
    MeasurementStore&& other) noexcept {
  if (this == &other) return *this;
  {
    std::scoped_lock lk(mu_, other.mu_);
    values_ = std::move(other.values_);
    suspects_ = std::move(other.suspects_);
    hits_.store(other.hits_.load());
    misses_.store(other.misses_.load());
    // Strictly above both stores' versions, so any cached snapshot (ours
    // or one built from the source) reads as stale.
    version_.store(std::max(version_.load(), other.version_.load()) + 1);
    cluster_size_ = other.cluster_size_;
    cluster_seed_ = other.cluster_seed_;
  }
  std::lock_guard<std::mutex> lk(snap_mu_);
  snap_.reset();
  return *this;
}

void MeasurementStore::insert(const ExperimentKey& key, double seconds) {
  std::unique_lock lk(mu_);
  insert_locked(key, seconds);
}

void MeasurementStore::quarantine(const ExperimentKey& key,
                                  double suspect_seconds) {
  std::unique_lock lk(mu_);
  quarantine_locked(key, suspect_seconds);
}

// The end hint makes a write O(1) when keys arrive sorted, as from_json's
// do; any other key costs the plain O(log n) insert.
void MeasurementStore::insert_locked(const ExperimentKey& key,
                                     double seconds) {
  suspects_.erase(key);  // a clean measurement supersedes the suspect one
  values_.emplace_hint(values_.end(), key, seconds);  // first write wins
  version_.fetch_add(1, std::memory_order_release);
}

void MeasurementStore::quarantine_locked(const ExperimentKey& key,
                                         double suspect_seconds) {
  LMO_CHECK_MSG(std::isfinite(suspect_seconds),
                "quarantined suspect value must be finite: " +
                    key.describe());
  if (values_.count(key) != 0) return;  // a clean value is authoritative
  // latest suspicion wins
  suspects_.insert_or_assign(suspects_.end(), key, suspect_seconds);
  version_.fetch_add(1, std::memory_order_release);
  obs::Registry::global().counter("store.quarantined").inc();
}

std::optional<double> MeasurementStore::lookup(
    const ExperimentKey& key) const {
  std::shared_lock lk(mu_);
  const auto it = values_.find(key);
  if (it == values_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

bool MeasurementStore::contains(const ExperimentKey& key) const {
  std::shared_lock lk(mu_);
  return values_.count(key) != 0;
}

double MeasurementStore::at(const ExperimentKey& key) const {
  std::shared_lock lk(mu_);
  const auto it = values_.find(key);
  if (it != values_.end()) return it->second;
  const auto sit = suspects_.find(key);
  LMO_CHECK_MSG(sit != suspects_.end(),
                "measurement store is missing: " + key.describe());
  return sit->second;
}

std::size_t MeasurementStore::quarantined_count() const {
  std::shared_lock lk(mu_);
  return suspects_.size();
}

std::size_t MeasurementStore::size() const {
  std::shared_lock lk(mu_);
  return values_.size();
}

std::shared_ptr<const StoreSnapshot> MeasurementStore::snapshot() const {
  const std::uint64_t want = version_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    if (snap_ && snap_->version == want) return snap_;
  }
  auto fresh = std::make_shared<StoreSnapshot>();
  {
    // A shared lock suffices — building a snapshot is a read, concurrent
    // with lookups. Writers are excluded, so the maps and the version we
    // record are one consistent cut.
    std::shared_lock lk(mu_);
    fresh->version = version_.load(std::memory_order_acquire);
    fresh->keys.reserve(values_.size());
    fresh->values.reserve(values_.size());
    for (const auto& [key, value] : values_) {  // map order: sorted
      fresh->keys.push_back(key);
      fresh->values.push_back(value);
    }
    fresh->suspect_keys.reserve(suspects_.size());
    fresh->suspect_values.reserve(suspects_.size());
    for (const auto& [key, value] : suspects_) {
      fresh->suspect_keys.push_back(key);
      fresh->suspect_values.push_back(value);
    }
    fresh->cluster_size = cluster_size_;
    fresh->cluster_seed = cluster_seed_;
  }
  std::lock_guard<std::mutex> lk(snap_mu_);
  // Concurrent builders may race; versions are monotone, so only ever
  // replace the cache with a newer cut.
  if (!snap_ || snap_->version < fresh->version) snap_ = fresh;
  return fresh;
}

void MeasurementStore::merge_from(const MeasurementStore& other) {
  std::scoped_lock lk(mu_, other.mu_);
  if (cluster_size_ != 0 && other.cluster_size_ != 0) {
    LMO_CHECK_MSG(cluster_size_ == other.cluster_size_ &&
                      cluster_seed_ == other.cluster_seed_,
                  "cannot merge measurement stores with mismatched cluster "
                  "provenance: size " +
                      std::to_string(cluster_size_) + " seed " +
                      std::to_string(cluster_seed_) + " vs size " +
                      std::to_string(other.cluster_size_) + " seed " +
                      std::to_string(other.cluster_seed_));
  } else if (cluster_size_ == 0) {
    cluster_size_ = other.cluster_size_;
    cluster_seed_ = other.cluster_seed_;
  }
  for (const auto& [key, value] : other.values_) {
    const auto it = values_.find(key);
    if (it != values_.end()) {
      LMO_CHECK_MSG(it->second == value,
                    "measurement stores disagree on " + key.describe() +
                        " — inputs are not shards of one run");
      continue;
    }
    values_.emplace(key, value);
    suspects_.erase(key);  // a clean value supersedes a suspect one
  }
  for (const auto& [key, value] : other.suspects_)
    if (values_.count(key) == 0) suspects_.emplace(key, value);
  version_.fetch_add(1, std::memory_order_release);
}

void MeasurementStore::set_cluster(int size, std::uint64_t seed) {
  std::unique_lock lk(mu_);
  cluster_size_ = size;
  cluster_seed_ = seed;
  version_.fetch_add(1, std::memory_order_release);
}

void MeasurementStore::bind_cluster(int size, std::uint64_t seed) {
  std::unique_lock lk(mu_);
  if (cluster_size_ == 0) {
    cluster_size_ = size;
    cluster_seed_ = seed;
    version_.fetch_add(1, std::memory_order_release);
    return;
  }
  LMO_CHECK_MSG(cluster_size_ == size,
                "measurements were taken on a " +
                    std::to_string(cluster_size_) + "-node cluster, not " +
                    std::to_string(size));
  LMO_CHECK_MSG(cluster_seed_ == seed,
                "measurements were taken on cluster seed " +
                    std::to_string(cluster_seed_) + ", not " +
                    std::to_string(seed));
}

obs::Json MeasurementStore::to_json() const {
  std::shared_lock lk(mu_);
  obs::Json j = obs::Json::object();
  j.reserve(3);
  j["schema"] = kMeasurementsSchema;
  if (cluster_size_ > 0) {
    obs::Json cluster = obs::Json::object();
    cluster.reserve(2);
    cluster["size"] = cluster_size_;
    cluster["seed"] = cluster_seed_;
    j["cluster"] = std::move(cluster);
  }
  obs::Json entries = obs::Json::array();
  entries.reserve(values_.size() + suspects_.size());
  for (const auto& [key, value] : values_) {  // map order: deterministic
    obs::Json e = key.to_json(1);
    e["value"] = value;
    entries.push_back(std::move(e));
  }
  for (const auto& [key, value] : suspects_) {
    obs::Json e = key.to_json(2);
    e["value"] = value;
    e["quarantined"] = true;
    entries.push_back(std::move(e));
  }
  j["entries"] = std::move(entries);
  return j;
}

MeasurementStore MeasurementStore::from_json(const obs::Json& j) {
  const obs::JsonField root(j, "measurement store");
  const std::string_view schema = root["schema"].string();
  if (schema != kMeasurementsSchema)
    root["schema"].fail("= '" + std::string(schema) + "', expected '" +
                        kMeasurementsSchema + "'");
  MeasurementStore store;
  if (root.find("cluster")) {
    const obs::JsonField cluster = root["cluster"];
    store.set_cluster(int(cluster["size"].integer(0, sim::kMaxRanks)),
                      std::uint64_t(cluster["seed"].integer()));
  }
  // Each entry is read as its own document, "measurement store
  // entries[i]", and written under one lock.
  const std::size_t n = root["entries"].size();
  const obs::Json& entries = j.at("entries");
  {
    std::unique_lock lk(store.mu_);
    for (std::size_t i = 0; i < n; ++i) {
      const obs::JsonField e(entries[i], "measurement store entries", i);
      const ExperimentKey key = ExperimentKey::from_json(e);
      const double value = e["value"].number();
      const auto quarantined = e.find("quarantined");
      if (quarantined && quarantined->boolean())
        store.quarantine_locked(key, value);
      else
        store.insert_locked(key, value);
    }
  }
  return store;
}

void MeasurementStore::save(const std::string& path) const {
  std::string text = to_json().dump(2);
  text += '\n';
  obs::replace_file(path, text);
}

MeasurementStore MeasurementStore::load(const std::string& path) {
  const std::string text = obs::read_file(path);
  // Truncated or garbage input must fail loudly with the file named —
  // parse errors alone only carry a byte offset.
  try {
    return from_json(obs::Json::parse(text));
  } catch (const Error& e) {
    throw Error("failed to load measurements from " + path + ": " + e.what());
  }
}

}  // namespace lmo::estimate
