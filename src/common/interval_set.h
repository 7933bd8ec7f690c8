#ifndef KONDO_COMMON_INTERVAL_SET_H_
#define KONDO_COMMON_INTERVAL_SET_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace kondo {

/// A half-open byte/index interval [begin, end).
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;

  int64_t length() const { return end - begin; }
  bool empty() const { return end <= begin; }
  bool Contains(int64_t x) const { return begin <= x && x < end; }
  bool Overlaps(const Interval& other) const {
    return begin < other.end && other.begin < end;
  }
  /// True when the intervals overlap or touch (can be coalesced).
  bool Touches(const Interval& other) const {
    return begin <= other.end && other.begin <= end;
  }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.begin == b.begin && a.end == b.end;
  }
};

std::ostream& operator<<(std::ostream& os, const Interval& interval);

/// An ordered set of disjoint half-open intervals with automatic coalescing.
///
/// The audit layer uses `IntervalSet` to merge overlapping I/O events into
/// accessed offset ranges; the paper's worked example (events
/// e1(0,110), e2(70,30), e3(130,20), e4(90,30)) coalesces to
/// [0,120) and [130,150).
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Inserts [begin, end); overlapping or adjacent intervals are coalesced.
  /// Empty intervals are ignored. O(1) amortised when `begin` is at or
  /// after the last interval's begin, so building from sorted ranges is
  /// linear; O(log n) plus the absorbed intervals otherwise.
  void Add(int64_t begin, int64_t end);
  void Add(const Interval& interval) { Add(interval.begin, interval.end); }

  /// Adds every interval of `other`.
  void Union(const IntervalSet& other);

  /// True if `x` lies inside some interval.
  bool Contains(int64_t x) const;

  /// True if [begin, end) is fully covered.
  bool ContainsRange(int64_t begin, int64_t end) const;

  /// True if [begin, end) overlaps any interval.
  bool Intersects(int64_t begin, int64_t end) const;

  /// Number of disjoint intervals.
  size_t size() const { return intervals_.size(); }
  bool empty() const { return intervals_.empty(); }

  /// Total covered length (sum of interval lengths).
  int64_t TotalLength() const;

  /// Returns the disjoint intervals in increasing order.
  std::vector<Interval> ToIntervals() const;

  /// Renders e.g. "[0,120) [130,150)".
  std::string ToString() const;

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    return a.intervals_ == b.intervals_;
  }

 private:
  // Maps interval begin -> end. Invariant: entries are disjoint and
  // non-adjacent (gap of at least 1 between consecutive intervals).
  std::map<int64_t, int64_t> intervals_;
};

}  // namespace kondo

#endif  // KONDO_COMMON_INTERVAL_SET_H_
