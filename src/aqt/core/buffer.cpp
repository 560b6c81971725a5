#include "aqt/core/buffer.hpp"

#include <algorithm>

#include "aqt/util/check.hpp"

namespace aqt {

void Buffer::reallocate(std::size_t capacity) {
  std::vector<BufferEntry> fresh(capacity);
  for (std::size_t i = 0; i < size_; ++i) fresh[i] = slot(i);
  entries_.swap(fresh);
  head_ = 0;
}

void Buffer::insert_ordered(const BufferEntry& e) {
  // Called with room for one more entry, and with front <= e <= back, so the
  // insertion point lies strictly inside the ring: shift the tail after it
  // one slot towards the back.
  std::size_t lo = 0;
  std::size_t hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (slot(mid) < e)
      lo = mid + 1;
    else
      hi = mid;
  }
  const std::size_t mask = entries_.size() - 1;
  for (std::size_t i = size_; i > lo; --i)
    entries_[(head_ + i) & mask] = slot(i - 1);
  entries_[(head_ + lo) & mask] = e;
  ++size_;
}

bool Buffer::erase_packet(PacketId packet) {
  for (std::size_t i = 0; i < size_; ++i) {
    if (slot(i).packet != packet) continue;
    --size_;
    if (ring_) {
      const std::size_t mask = entries_.size() - 1;
      for (std::size_t j = i; j < size_; ++j)
        entries_[(head_ + j) & mask] = slot(j + 1);
    } else if (i < size_) {
      // The moved-in entry may violate the heap property in either
      // direction relative to its new neighborhood.
      entries_[i] = entries_[size_];
      sift_down(i);
      sift_up(i);
    }
    release_if_sparse();
    return true;
  }
  return false;
}

std::vector<BufferEntry> Buffer::ordered_entries() const {
  std::vector<BufferEntry> out(begin(), end());
  if (!ring_) std::sort(out.begin(), out.end());
  return out;
}

const BufferEntry& Buffer::max_entry() const {
  AQT_CHECK(size_ != 0, "max_entry on empty buffer");
  if (ring_) return slot(size_ - 1);
  return *std::max_element(begin(), end());
}

}  // namespace aqt
