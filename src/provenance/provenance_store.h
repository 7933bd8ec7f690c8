#ifndef KONDO_PROVENANCE_PROVENANCE_STORE_H_
#define KONDO_PROVENANCE_PROVENANCE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/event.h"
#include "common/status.h"
#include "common/statusor.h"
#include "provenance/kel2_format.h"
#include "provenance/provenance_query.h"

namespace kondo {

/// A long-lived handle on an open KEL2 store that answers interval queries
/// from an immutable in-memory offset index — the paper's §IV-C per-file
/// interval lookup, in flat form.
///
/// `Open` decodes every intact block once and keeps, per file id, one
/// compact entry per data-access event (offset, size, pid, type and its
/// store-order sequence number) sorted by offset, plus a max-end
/// hierarchy over fixed 64-entry leaves: the flat form of an interval
/// tree's per-node `max_end`, so one long event keeps only its own leaf
/// (and its ancestors) from being pruned. Nothing changes after `Open`,
/// so concurrent queries on one store are lock-free reads. A lookup
/// binary-searches the entries that start before the range's end, visits
/// the leaves whose max end passes its begin, and sorts the matches by
/// seq.
///
/// Results equal `ProvenanceQuery::EventsOverlapping` on the same file,
/// event for event and in store order (block, then event), status for
/// status: a block whose payload fails its CRC or decode is not indexed,
/// and a query whose range its descriptor may match returns that block's
/// error (the first such block in store order), as the scan would.
class ProvenanceStore {
 public:
  /// Opens a KEL2 store and builds its index; any other file is rejected
  /// by Kel2Reader::Open (kDataLoss).
  static StatusOr<std::unique_ptr<ProvenanceStore>> Open(
      const std::string& path);

  /// Data-access events of `file_id` overlapping [begin, end), store order.
  /// With `query_stats` non-null, receives this query's counters: the
  /// descriptor-derived `blocks_considered`/`blocks_skipped` a scan would
  /// report, `blocks_decoded` 0 (decoding happened at open) and the index
  /// entries tested as `events_scanned`.
  StatusOr<std::vector<Event>> EventsOverlapping(
      int64_t file_id, int64_t begin, int64_t end,
      ProvenanceQueryStats* query_stats = nullptr) const;

  int64_t NumBlocks() const { return static_cast<int64_t>(blocks_.size()); }
  int64_t NumEvents() const { return num_events_; }
  /// Heap bytes the offset index holds (entries, leaf maxima and block
  /// side tables), excluding the block descriptors.
  int64_t IndexBytes() const { return index_bytes_; }
  const std::string& path() const { return path_; }

 private:
  /// One indexed data-access event; its file id is implied by the
  /// partition it sits in.
  struct Entry {
    int64_t offset;
    int64_t size;
    int64_t pid;
    uint32_t seq;  // Position among the file's entries in store order.
    EventType type;
    /// Set when a descriptor cannot vouch for the match: size <= 0 (the
    /// writer leaves such events out of the descriptor's byte range) or a
    /// descriptor that does not cover the event. Such an entry matches
    /// only when its block's descriptor does, as in the scan.
    bool check_block;
  };

  /// The index of one file id.
  struct FileIndex {
    int64_t file_id = 0;
    std::vector<Entry> entries;  // Sorted by offset.
    /// max_end[0][j] is the largest offset + size over leaf j's entries;
    /// max_end[k + 1][j] the largest over nodes [64j, 64j + 64) of level
    /// k. The last level has at most 64 nodes.
    std::vector<std::vector<int64_t>> max_end;
    /// (seq, block) for every entry with `check_block`, sorted by seq.
    std::vector<std::pair<uint32_t, uint32_t>> block_of;
  };

  /// A block whose payload failed its CRC or decode at open.
  struct BadBlock {
    Kel2BlockInfo info;
    Status status;
  };

  ProvenanceStore() = default;

  /// Appends `seq << 32 | i` to `matches` for each entry i of `index`
  /// below `hi`, under node `node` of level `level`, that overlaps
  /// [begin, end); counts the entries it tests in `tested`.
  void Collect(const FileIndex& index, size_t level, size_t node, size_t hi,
               int64_t begin, int64_t end, std::vector<uint64_t>* matches,
               int64_t* tested) const;

  std::string path_;
  int64_t num_events_ = 0;
  int64_t index_bytes_ = 0;
  std::vector<Kel2BlockInfo> blocks_;  // Every intact block, store order.
  std::vector<BadBlock> bad_blocks_;   // Store order.
  std::vector<FileIndex> files_;       // Sorted by file_id.
};

}  // namespace kondo

#endif  // KONDO_PROVENANCE_PROVENANCE_STORE_H_
