#include "serve/subset_cache.h"

#include <utility>
#include <vector>

namespace kondo {

SubsetCache::SubsetCache(int64_t capacity_bytes)
    : capacity_(capacity_bytes > 0 ? capacity_bytes : 0) {}

std::shared_ptr<const std::string> SubsetCache::LookupLocked(
    const SubsetKey& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return nullptr;
  }
  // Refresh recency: splice the entry to the front of the LRU list.
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->payload;
}

StatusOr<std::shared_ptr<const std::string>> SubsetCache::GetOrFill(
    const SubsetKey& key, const FillFn& fill) {
  std::shared_ptr<Flight> flight;
  {
    MutexLock lock(mu_);
    if (std::shared_ptr<const std::string> cached = LookupLocked(key)) {
      ++stats_.hits;
      return cached;
    }
    if (const auto it = flights_.find(key); it != flights_.end()) {
      // Another session is loading this slice: share its result.
      flight = it->second;
      while (!flight->done) {
        fill_done_.Wait(mu_);
      }
      if (!flight->status.ok()) {
        return flight->status;
      }
      ++stats_.hits;
      return flight->payload;
    }
    ++stats_.misses;
    // Anything cached under an older fingerprint of this artifact is dead
    // weight now — sweep it rather than waiting for LRU pressure.
    EvictStaleLocked(key.artifact, key.fingerprint_bytes, key.fingerprint_crc);
    flight = std::make_shared<Flight>();
    flights_.emplace(key, flight);
  }

  StatusOr<std::string> filled = fill();
  MutexLock lock(mu_);
  flights_.erase(key);
  flight->done = true;
  if (filled.ok()) {
    flight->payload = InsertLocked(key, *std::move(filled));
  } else {
    flight->status = filled.status();
  }
  fill_done_.NotifyAll();
  if (!flight->status.ok()) {
    return flight->status;
  }
  return flight->payload;
}

void SubsetCache::EvictForLocked(int64_t need) {
  while (stats_.bytes + need > capacity_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    stats_.bytes -= static_cast<int64_t>(victim.payload->size());
    --stats_.entries;
    ++stats_.evictions;
    index_.erase(victim.key);
    lru_.pop_back();
  }
}

std::shared_ptr<const std::string> SubsetCache::InsertLocked(
    const SubsetKey& key, std::string payload) {
  // `key` is not cached: only its one flight inserts it, and a flight
  // starts only on a lookup miss.
  auto value = std::make_shared<const std::string>(std::move(payload));
  const int64_t size = static_cast<int64_t>(value->size());
  if (size > capacity_) {
    // Larger than the whole cache: serve it, never cache it.
    return value;
  }
  EvictForLocked(size);
  lru_.push_front(Entry{key, value});
  index_[key] = lru_.begin();
  stats_.bytes += size;
  ++stats_.entries;
  ++stats_.insertions;
  return value;
}

void SubsetCache::EvictStaleLocked(const std::string& artifact,
                                   int64_t fingerprint_bytes,
                                   uint32_t fingerprint_crc) {
  // The index is ordered by artifact first, so the artifact's entries form
  // one contiguous key range.
  auto it = index_.lower_bound(SubsetKey{artifact, INT64_MIN, 0, INT64_MIN,
                                         INT64_MIN});
  while (it != index_.end() && it->first.artifact == artifact) {
    if (it->first.fingerprint_bytes == fingerprint_bytes &&
        it->first.fingerprint_crc == fingerprint_crc) {
      ++it;
      continue;
    }
    stats_.bytes -= static_cast<int64_t>(it->second->payload->size());
    --stats_.entries;
    ++stats_.stale_evictions;
    lru_.erase(it->second);
    it = index_.erase(it);
  }
}

SubsetCacheStats SubsetCache::stats() const {
  MutexLock lock(mu_);
  SubsetCacheStats out = stats_;
  out.capacity_bytes = capacity_;
  return out;
}

}  // namespace kondo
