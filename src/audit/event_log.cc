#include "audit/event_log.h"

#include <algorithm>

namespace kondo {

int64_t EventLog::Record(const Event& event) {
  const int64_t seq = static_cast<int64_t>(events_.size());
  events_.push_back(event);
  indexes_current_ = false;
  return seq;
}

template <typename Keep>
IntervalSet EventLog::MergedRanges(Keep keep) const {
  // Consecutive events mostly extend one another (a program walking a row),
  // so fold touching neighbours first; what is left is sorted by begin and
  // added in order, which IntervalSet::Add coalesces in O(1) each.
  std::vector<Interval> runs;
  for (const Event& event : events_) {
    if (!event.IsDataAccess() || event.size <= 0 || !keep(event)) {
      continue;
    }
    const Interval range{event.offset, event.offset + event.size};
    if (!runs.empty() && runs.back().begin <= range.begin &&
        range.begin <= runs.back().end) {
      runs.back().end = std::max(runs.back().end, range.end);
    } else {
      runs.push_back(range);
    }
  }
  std::sort(runs.begin(), runs.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  IntervalSet merged;
  for (const Interval& run : runs) {
    merged.Add(run);
  }
  return merged;
}

IntervalSet EventLog::AccessedRanges(int64_t file_id) const {
  return MergedRanges(
      [file_id](const Event& event) { return event.id.file_id == file_id; });
}

IntervalSet EventLog::AccessedRangesForProcess(int64_t pid,
                                               int64_t file_id) const {
  const EventId id{pid, file_id};
  return MergedRanges([&id](const Event& event) { return event.id == id; });
}

void EventLog::BuildProcessIndexes() const {
  if (indexes_current_) {
    return;
  }
  process_indexes_.clear();
  for (size_t seq = 0; seq < events_.size(); ++seq) {
    const Event& event = events_[seq];
    if (event.IsDataAccess() && event.size > 0) {
      process_indexes_[event.id].Insert(
          Interval{event.offset, event.offset + event.size},
          static_cast<int64_t>(seq));
    }
  }
  indexes_current_ = true;
}

const IntervalBTree* EventLog::ProcessIndex(int64_t pid,
                                            int64_t file_id) const {
  BuildProcessIndexes();
  auto it = process_indexes_.find(EventId{pid, file_id});
  return it == process_indexes_.end() ? nullptr : &it->second;
}

bool EventLog::HasWrites(int64_t file_id) const {
  return std::any_of(events_.begin(), events_.end(),
                     [file_id](const Event& event) {
                       return event.type == EventType::kWrite &&
                              event.id.file_id == file_id;
                     });
}

std::vector<Event> EventLog::LookupProcessRange(int64_t pid, int64_t file_id,
                                                int64_t begin,
                                                int64_t end) const {
  std::vector<Event> result;
  const IntervalBTree* index = ProcessIndex(pid, file_id);
  if (index != nullptr) {
    index->VisitOverlaps(begin, end,
                         [this, &result](const IntervalBTree::Entry& entry) {
                           result.push_back(
                               events_[static_cast<size_t>(entry.payload)]);
                         });
  }
  return result;
}

void EventLog::Clear() {
  events_.clear();
  process_indexes_.clear();
  indexes_current_ = false;
}

}  // namespace kondo
