#ifndef KONDO_AUDIT_EVENT_LOG_H_
#define KONDO_AUDIT_EVENT_LOG_H_

#include <cstdint>
#include <map>
#include <vector>

#include "audit/event.h"
#include "audit/interval_btree.h"
#include "common/interval_set.h"

namespace kondo {

/// Accumulates audited I/O events. Recording is a plain append; every
/// derived view is computed from the event stream when asked:
///
///  * per-file merged offset ranges across processes (overlapping events are
///    coalesced, reproducing the paper's worked example where
///    e1(P1,R,0,110), e2(P2,R,70,30), e3(P1,R,130,20), e4(P1,R,90,30)
///    yield accessed offsets (0,120) and (130,150)), per-process ranges and
///    the write check — each one pass over the events plus a sort of one
///    file's ranges; and
///  * per-(process, file) interval B-trees indexing every data-access event
///    (Section IV-C: "interval-based B-trees ... per-process lookup"), built
///    on the first `ProcessIndex` or `LookupProcessRange` call and kept
///    until the next `Record` or `Clear`.
///
/// Const methods other than `ProcessIndex` and `LookupProcessRange` are pure
/// reads; those two may build the cached index, so they must not race with
/// each other or with any other call on the same log.
class EventLog {
 public:
  EventLog() = default;

  /// Appends an event. Returns the event's sequence number.
  int64_t Record(const Event& event);

  /// All events in arrival order.
  const std::vector<Event>& events() const { return events_; }
  int64_t NumEvents() const { return static_cast<int64_t>(events_.size()); }

  /// Merged accessed byte ranges of `file_id` across all processes.
  IntervalSet AccessedRanges(int64_t file_id) const;

  /// Merged accessed byte ranges of `file_id` by a single process.
  IntervalSet AccessedRangesForProcess(int64_t pid, int64_t file_id) const;

  /// The per-process interval index (nullptr when no accesses recorded).
  /// The pointer stays valid until the next `Record` or `Clear`.
  const IntervalBTree* ProcessIndex(int64_t pid, int64_t file_id) const;

  /// True when any write event touched `file_id` — the paper records the
  /// event type `c` "to ensure that no write event took place".
  bool HasWrites(int64_t file_id) const;

  /// Events whose ranges overlap [begin,end) on `file_id` for `pid`.
  std::vector<Event> LookupProcessRange(int64_t pid, int64_t file_id,
                                        int64_t begin, int64_t end) const;

  /// Drops all recorded state.
  void Clear();

 private:
  /// Coalesced data-access ranges of the events `keep` accepts.
  template <typename Keep>
  IntervalSet MergedRanges(Keep keep) const;

  /// Builds `process_indexes_` from `events_` unless it is current.
  void BuildProcessIndexes() const;

  std::vector<Event> events_;
  // Lazily built §IV-C index; `indexes_current_` is false after any change
  // to `events_`.
  mutable std::map<EventId, IntervalBTree> process_indexes_;
  mutable bool indexes_current_ = false;
};

}  // namespace kondo

#endif  // KONDO_AUDIT_EVENT_LOG_H_
