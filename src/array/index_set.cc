#include "array/index_set.h"

#include <algorithm>

#include "common/logging.h"

namespace kondo {

int32_t IndexSet::MutableSlot(int64_t page) {
  if (directory_.empty()) {
    directory_.assign(
        static_cast<size_t>((num_elements_ + kPageIds - 1) >> kPageBits), -1);
  }
  int32_t& slot = directory_[static_cast<size_t>(page)];
  if (slot < 0) {
    slot = static_cast<int32_t>(slot_pages_.size());
    slot_pages_.push_back(page);
    words_.resize(words_.size() + kWordsPerPage, 0);
  }
  return slot;
}

void IndexSet::InsertInRange(int64_t linear) {
  uint64_t& word = PageWords(MutableSlot(linear >> kPageBits))[WordInPage(
      linear)];
  const uint64_t bit = uint64_t{1} << (linear & 63);
  count_ += (word & bit) == 0;
  word |= bit;
}

void IndexSet::Insert(const Index& index) {
  const int64_t linear = shape_.LinearOrNegative(index);
  if (linear >= 0) {
    InsertInRange(linear);
  }
}

void IndexSet::InsertLinear(int64_t linear) {
  KONDO_CHECK_GE(linear, 0);
  KONDO_CHECK_LT(linear, num_elements_);
  InsertInRange(linear);
}

void IndexSet::InsertRange(int64_t lo, int64_t hi) {
  KONDO_CHECK_GE(lo, 0);
  KONDO_CHECK_LE(lo, hi);
  KONDO_CHECK_LE(hi, num_elements_);
  while (lo < hi) {
    const int64_t page = lo >> kPageBits;
    const int64_t stop = std::min(hi, (page + 1) << kPageBits);
    uint64_t* words = PageWords(MutableSlot(page));
    for (int64_t id = lo; id < stop;) {
      // Bits [id, word_stop) of one word.
      const int64_t word_stop = std::min(stop, (id | 63) + 1);
      const int bits = static_cast<int>(word_stop - id);
      const uint64_t mask = (bits == 64 ? ~uint64_t{0}
                                        : (uint64_t{1} << bits) - 1)
                            << (id & 63);
      uint64_t& word = words[WordInPage(id)];
      count_ += std::popcount(mask & ~word);
      word |= mask;
      id = word_stop;
    }
    lo = stop;
  }
}

bool IndexSet::Contains(const Index& index) const {
  const int64_t linear = shape_.LinearOrNegative(index);
  return linear >= 0 && ContainsLinear(linear);
}

void IndexSet::Union(const IndexSet& other) {
  if (other.empty()) {
    return;
  }
  if (empty() && shape_.rank() == 0) {
    shape_ = other.shape_;
    num_elements_ = other.num_elements_;
  }
  KONDO_CHECK(shape_ == other.shape_);
  for (size_t s = 0; s < other.slot_pages_.size(); ++s) {
    // MutableSlot may grow words_, so take the destination pointer after it.
    const int32_t slot = MutableSlot(other.slot_pages_[s]);
    uint64_t* dst = PageWords(slot);
    const uint64_t* src = other.PageWords(static_cast<int32_t>(s));
    for (int64_t w = 0; w < kWordsPerPage; ++w) {
      count_ += std::popcount(src[w] & ~dst[w]);
      dst[w] |= src[w];
    }
  }
}

int64_t IndexSet::IntersectionSize(const IndexSet& other) const {
  int64_t count = 0;
  for (size_t s = 0; s < slot_pages_.size(); ++s) {
    const int32_t other_slot = other.SlotOf(slot_pages_[s]);
    if (other_slot < 0) {
      continue;
    }
    const uint64_t* a = PageWords(static_cast<int32_t>(s));
    const uint64_t* b = other.PageWords(other_slot);
    for (int64_t w = 0; w < kWordsPerPage; ++w) {
      count += std::popcount(a[w] & b[w]);
    }
  }
  return count;
}

bool IndexSet::IsSubsetOf(const IndexSet& other) const {
  if (count_ > other.count_) {
    return false;
  }
  for (size_t s = 0; s < slot_pages_.size(); ++s) {
    const int32_t other_slot = other.SlotOf(slot_pages_[s]);
    if (other_slot < 0) {
      return false;  // A touched page always holds at least one id.
    }
    const uint64_t* a = PageWords(static_cast<int32_t>(s));
    const uint64_t* b = other.PageWords(other_slot);
    for (int64_t w = 0; w < kWordsPerPage; ++w) {
      if ((a[w] & ~b[w]) != 0) {
        return false;
      }
    }
  }
  return true;
}

std::vector<Index> IndexSet::ToIndices() const {
  std::vector<Index> result;
  result.reserve(size());
  ForEach([&result](const Index& index) { result.push_back(index); });
  return result;
}

std::vector<int64_t> IndexSet::ToSortedLinearIds() const {
  std::vector<int64_t> result;
  result.reserve(size());
  ForEachLinear([&result](int64_t id) { result.push_back(id); });
  return result;
}

}  // namespace kondo
