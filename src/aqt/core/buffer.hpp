// Per-edge packet buffer ordered by protocol priority.
//
// Entries are (k1, k2, arrival_seq, packet) tuples under the strict total
// order below; the minimum entry is the packet the protocol forwards next.
// All protocols in this library assign keys at arrival only, so
// pop-the-minimum semantics suffice, and because the order is total
// (packet id breaks every tie) the pop sequence is a pure function of the
// pushed entries, whatever the representation.  There are two, chosen once
// per buffer (Engine picks one for all its buffers from
// Protocol::key_rule()):
//
//  * kHeap — a binary min-heap.  O(log n) push and pop.  Every rule whose
//    keys can arrive in any order: LIS, NIS, FTG, NTG, FFS, NTS, RANDOM and
//    every kCustom protocol.
//  * kRing — a circular array kept in key order.  FIFO's keys {seq, 0} only
//    ever grow and LIFO's {-seq, 0} only ever shrink, so each FIFO push
//    appends at the back, each LIFO push prepends at the front, and every
//    pop takes the front: all O(1).  Any other push (checkpoint restore,
//    test-only tampering) is an O(n) ordered insert, so the ring stays
//    correct for any push sequence.
//
// Both live in one flat `entries_` vector whose size is the capacity, a
// power of two (the heap is the ring with its head fixed at slot 0).
// Capacity doubles when full and halves after a pop or erase that leaves a
// buffer above kShrinkFloor entries of capacity less than a quarter full, so
// a buffer holds O(peak of its recent occupancy), not the largest queue it
// ever saw, and each resize is amortized O(1) per operation.
//
// Iteration (begin/end) walks the entries in storage order: key order for a
// ring, heap order for a heap, without converting or copying either.  The
// iterating consumers (the invariant auditor, the LPS gadget inspector,
// tests) are order-insensitive or sort what they collect; the order is
// still a pure function of the operation sequence, so audits stay
// replayable.  ordered_entries() gives key order for either representation.
#pragma once

#include <cstddef>
#include <iterator>
#include <vector>

#include "aqt/core/protocol.hpp"
#include "aqt/core/types.hpp"
#include "aqt/util/check.hpp"

namespace aqt {

/// One buffered packet with its scheduling key.
struct BufferEntry {
  std::int64_t k1;
  std::int64_t k2;
  std::uint64_t seq;
  PacketId packet;

  friend bool operator<(const BufferEntry& a, const BufferEntry& b) {
    if (a.k1 != b.k1) return a.k1 < b.k1;
    if (a.k2 != b.k2) return a.k2 < b.k2;
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.packet < b.packet;
  }
};

/// The queue at the tail of one edge.
class Buffer {
 public:
  enum class Layout : std::uint8_t { kHeap, kRing };

  /// Buffers above this many entries of capacity give half of it back once
  /// they fall below a quarter full.
  static constexpr std::size_t kShrinkFloor = 64;

  /// The representation for a protocol's key rule: the ring for the two
  /// rules whose keys arrive in monotone order, the heap for the rest.
  [[nodiscard]] static Layout layout_for(KeyRule rule) {
    return rule == KeyRule::kFifo || rule == KeyRule::kLifo ? Layout::kRing
                                                            : Layout::kHeap;
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = BufferEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = const BufferEntry*;
    using reference = const BufferEntry&;

    const_iterator() = default;
    reference operator*() const { return buf_->slot(i_); }
    pointer operator->() const { return &buf_->slot(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    friend class Buffer;
    const_iterator(const Buffer* buf, std::size_t i) : buf_(buf), i_(i) {}
    const Buffer* buf_ = nullptr;
    std::size_t i_ = 0;
  };

  explicit Buffer(Layout layout = Layout::kHeap)
      : ring_(layout == Layout::kRing) {}

  void push(const BufferEntry& e) {
    if (size_ == entries_.size())
      reallocate(entries_.empty() ? 4 : 2 * entries_.size());
    if (!ring_) {
      entries_[size_] = e;
      sift_up(size_++);
      return;
    }
    const std::size_t mask = entries_.size() - 1;
    if (size_ == 0 || slot(size_ - 1) < e) {  // Every FIFO push.
      entries_[(head_ + size_) & mask] = e;
    } else if (e < entries_[head_]) {  // Every LIFO push.
      head_ = (head_ - 1) & mask;
      entries_[head_] = e;
    } else {
      insert_ordered(e);
      return;
    }
    ++size_;
  }

  /// Removes and returns the highest-priority (minimum-key) entry.
  BufferEntry pop_min() {
    AQT_CHECK(size_ != 0, "pop_min on empty buffer");
    const BufferEntry e = entries_[head_];
    --size_;
    if (ring_) {
      head_ = (head_ + 1) & (entries_.size() - 1);
    } else if (size_ != 0) {
      entries_[0] = entries_[size_];
      sift_down(0);
    }
    release_if_sparse();
    return e;
  }

  /// Removes the entry for `packet`; O(n) scan, used only by rare
  /// operations (never on the hot path).
  bool erase_packet(PacketId packet);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Bytes of entry storage held (a power of two entries, or 0).
  [[nodiscard]] std::size_t capacity_bytes() const {
    return entries_.capacity() * sizeof(BufferEntry);
  }

  /// Storage-order iteration: key order for a ring, heap order for a heap.
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  /// Key-sorted copy of the entries — the order pop_min would serve them.
  /// O(n) for a ring, O(n log n) for a heap; for order-sensitive cold paths
  /// (dumps, snapshots, the LPS adversary's whole-buffer reroutes), never
  /// the step loop.
  [[nodiscard]] std::vector<BufferEntry> ordered_entries() const;

  /// The minimum-key entry (what pop_min would return).
  [[nodiscard]] const BufferEntry& front() const {
    AQT_CHECK(size_ != 0, "front on empty buffer");
    return entries_[head_];
  }

  /// The maximum-key entry — the last the protocol would serve.  O(1) for a
  /// ring, an O(n) scan for a heap; test/diagnostic use only.
  [[nodiscard]] const BufferEntry& max_entry() const;

 private:
  /// The i-th entry in storage order.  A heap's head is always 0 and
  /// i < capacity, so one formula serves both representations.
  [[nodiscard]] const BufferEntry& slot(std::size_t i) const {
    return entries_[(head_ + i) & (entries_.size() - 1)];
  }
  void release_if_sparse() {
    if (entries_.size() > kShrinkFloor && size_ < entries_.size() / 4)
        [[unlikely]]
      reallocate(entries_.size() / 2);
  }
  /// Moves the entries, in storage order, into `capacity` fresh slots
  /// starting at slot 0.
  void reallocate(std::size_t capacity);
  /// Ring push of an entry that is neither above the back nor below the
  /// front.
  void insert_ordered(const BufferEntry& e);

  // Inline with push/pop_min above: both run for every packet-hop of every
  // step, and the common case (one- or two-entry heap) collapses to a
  // couple of compares when the compiler can see the whole loop.
  void sift_up(std::size_t i) {
    BufferEntry e = entries_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(e < entries_[parent])) break;
      entries_[i] = entries_[parent];
      i = parent;
    }
    entries_[i] = e;
  }
  void sift_down(std::size_t i) {
    const std::size_t n = size_;
    BufferEntry e = entries_[i];
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && entries_[child + 1] < entries_[child]) ++child;
      if (!(entries_[child] < e)) break;
      entries_[i] = entries_[child];
      i = child;
    }
    entries_[i] = e;
  }

  std::vector<BufferEntry> entries_;  ///< size() is the capacity.
  std::size_t head_ = 0;              ///< Slot of the front; 0 for a heap.
  std::size_t size_ = 0;
  bool ring_;
};

}  // namespace aqt
