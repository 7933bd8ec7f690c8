#ifndef KONDO_ARRAY_INDEX_SET_H_
#define KONDO_ARRAY_INDEX_SET_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "array/index.h"
#include "array/shape.h"

namespace kondo {

/// A set of array indices over a fixed shape — the `I_v` / `I_Θ` objects of
/// Section III — stored as a paged bitmap over row-major linear ids.
///
/// Ids are split into pages of `kPageIds` (64 Ki) ids, 1024 64-bit words
/// each. A page is allocated the first time one of its ids is inserted; a
/// directory maps every page of the shape to its slot in the page store
/// (-1 while untouched) and is sized on the first insert, so an empty set
/// costs nothing. Memory is therefore one directory slot per page of the
/// shape plus 8 KiB per touched page, never per element.
///
/// Inserts and lookups are O(1) bit operations, unions OR the other set's
/// touched pages word by word, and every walk visits ids in ascending
/// order straight off the bits — no hashing, no sort. Const methods are
/// pure reads, so a set may be read from several threads at once.
class IndexSet {
 public:
  IndexSet() = default;
  explicit IndexSet(Shape shape)
      : shape_(std::move(shape)), num_elements_(shape_.NumElements()) {}

  const Shape& shape() const { return shape_; }

  /// Inserts `index`; out-of-bounds indices are ignored (accesses outside
  /// the array are clipped, mirroring what an auditor would observe).
  void Insert(const Index& index);

  /// Inserts a linearised id. Requires 0 <= id < shape().NumElements().
  void InsertLinear(int64_t linear);

  /// Inserts every linear id in [lo, hi) with word-wise fills. Requires
  /// 0 <= lo <= hi <= shape().NumElements(); an empty range is a no-op.
  void InsertRange(int64_t lo, int64_t hi);

  bool Contains(const Index& index) const;
  bool ContainsLinear(int64_t linear) const {
    const int32_t slot = linear < 0 ? -1 : SlotOf(linear >> kPageBits);
    return slot >= 0 &&
           ((PageWords(slot)[WordInPage(linear)] >> (linear & 63)) & 1) != 0;
  }

  size_t size() const { return static_cast<size_t>(count_); }
  bool empty() const { return count_ == 0; }

  /// Adds all elements of `other` (shapes must match unless one is empty).
  void Union(const IndexSet& other);

  /// Number of elements present in both sets.
  int64_t IntersectionSize(const IndexSet& other) const;

  /// True when every element of this set is contained in `other`.
  bool IsSubsetOf(const IndexSet& other) const;

  /// Materialises the indices, in ascending linear-id order.
  std::vector<Index> ToIndices() const;

  /// Materialises the linear ids, sorted ascending.
  std::vector<int64_t> ToSortedLinearIds() const;

  /// Invokes `fn(linear_id)` for each member, in ascending order.
  template <typename Fn>
  void ForEachLinear(Fn&& fn) const {
    for (size_t page = 0; page < directory_.size(); ++page) {
      if (directory_[page] < 0) {
        continue;
      }
      const uint64_t* words = PageWords(directory_[page]);
      const int64_t base = static_cast<int64_t>(page) << kPageBits;
      for (int64_t w = 0; w < kWordsPerPage; ++w) {
        for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
          fn(base + w * 64 + std::countr_zero(bits));
        }
      }
    }
  }

  /// Invokes `fn(index)` for each member, in ascending linear-id order.
  ///
  /// The deterministic order is load-bearing: ForEach feeds carve-cell
  /// construction, offset mapping, and report rendering — paths whose
  /// artefacts must be bit-identical under replay.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachLinear([this, &fn](int64_t id) { fn(shape_.Delinearize(id)); });
  }

 private:
  static constexpr int kPageBits = 16;
  static constexpr int64_t kPageIds = int64_t{1} << kPageBits;
  static constexpr int64_t kWordsPerPage = kPageIds / 64;

  static size_t WordInPage(int64_t linear) {
    return static_cast<size_t>((linear >> 6) & (kWordsPerPage - 1));
  }
  const uint64_t* PageWords(int32_t slot) const {
    return words_.data() + static_cast<size_t>(slot) * kWordsPerPage;
  }
  uint64_t* PageWords(int32_t slot) {
    return words_.data() + static_cast<size_t>(slot) * kWordsPerPage;
  }
  /// The slot of `page`, or -1 when it is untouched or outside the shape.
  int32_t SlotOf(int64_t page) const {
    return static_cast<uint64_t>(page) < directory_.size()
               ? directory_[static_cast<size_t>(page)]
               : -1;
  }
  /// Returns `page`'s slot, allocating a zeroed page (and, on the first
  /// insert, the directory) when it is untouched.
  int32_t MutableSlot(int64_t page);
  void InsertInRange(int64_t linear);

  Shape shape_;
  int64_t num_elements_ = 1;  // Cached shape_.NumElements() (rank 0: 1).
  int64_t count_ = 0;
  std::vector<int32_t> directory_;   // Page -> slot, -1 when untouched.
  std::vector<int64_t> slot_pages_;  // Slot -> page, in allocation order.
  std::vector<uint64_t> words_;      // kWordsPerPage words per slot.
};

}  // namespace kondo

#endif  // KONDO_ARRAY_INDEX_SET_H_
