// Allocation-light event core for the deterministic simulator.
//
// The seed implementation paid one heap allocation per event: every callback
// was a std::function (whose small-buffer capacity is too small for the
// scheduler's captures), pushed through a binary-heap priority_queue whose
// sift path move-constructed the std::function O(log n) times per event.
// This file replaces that with
//
//   * SimCallback — a move-only callable with 64 bytes of inline storage,
//     enough for every capture the simulator's substrates schedule today;
//     larger captures fall back to one heap allocation.
//   * EventNode — slab/pool-allocated nodes that hold the callback exactly
//     once; nodes never move, so sifting the heap moves only 24-byte
//     plain-old-data entries.
//   * EventQueue — a 4-ary implicit min-heap ordered by (when, seq). The
//     tie-break sequence number is identical to the seed's, so pop order is
//     bit-identical for any schedule history (the order is a strict total
//     order; the heap shape cannot matter).
//   * EventHandle — cancelable timers. Cancellation is lazy: the node is
//     marked dead, its callback destroyed immediately, and the heap entry
//     discarded when it surfaces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"

namespace ckpt {

// Thread-local size-class pool for SimCallback captures too big for the
// inline buffer: 64-byte-granularity classes up to kMaxSize, free blocks
// linked through their first 8 bytes, backed by ::operator new. Acquire and
// Release are lock-free (each thread owns its lists); a block acquired on
// the coordinator and released on a drain worker simply migrates to the
// worker's list and is reused there. Every thread's lists are walked and
// freed at thread exit, so nothing leaks when pool workers join.
class SimCallbackPool {
 public:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxSize = 256;
  static constexpr int kClasses =
      static_cast<int>(kMaxSize / kGranularity);  // 128/192/256 (0 unused)

  static constexpr int ClassFor(std::size_t bytes) {
    return static_cast<int>((bytes + kGranularity - 1) / kGranularity) - 1;
  }

  static void* Acquire(int cls) {
    FreeLists& fl = lists();
    void* block = fl.head[cls];
    if (block != nullptr) {
      fl.head[cls] = *static_cast<void**>(block);
      return block;
    }
    return ::operator new(static_cast<std::size_t>(cls + 1) * kGranularity);
  }

  static void Release(void* block, int cls) {
    FreeLists& fl = lists();
    *static_cast<void**>(block) = fl.head[cls];
    fl.head[cls] = block;
  }

 private:
  struct FreeLists {
    void* head[kClasses] = {};
    ~FreeLists() {
      for (void*& h : head) {
        while (h != nullptr) {
          void* next = *static_cast<void**>(h);
          ::operator delete(h);
          h = next;
        }
      }
    }
  };

  static FreeLists& lists() {
    static thread_local FreeLists fl;
    return fl;
  }
};

// Move-only callable with small-buffer optimization. The inline capacity is
// sized for the largest capture the simulator schedules on its hot paths
// (the YARN RM's [client, Container] allocation callback, 64 bytes).
// Captures up to SimCallbackPool::kMaxSize draw pooled blocks instead of
// paying a malloc per event; only larger ones hit the global heap.
class SimCallback {
 public:
  static constexpr std::size_t kInlineSize = 64;

  SimCallback() = default;
  SimCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SimCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SimCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_.buf)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::vtable;
    } else if constexpr (sizeof(Fn) <= SimCallbackPool::kMaxSize &&
                         alignof(Fn) <= alignof(std::max_align_t)) {
      void* block =
          SimCallbackPool::Acquire(SimCallbackPool::ClassFor(sizeof(Fn)));
      ::new (block) Fn(std::forward<F>(f));
      storage_.ptr = block;
      ops_ = &PooledOps<Fn>::vtable;
    } else {
      storage_.ptr = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::vtable;
    }
  }

  SimCallback(SimCallback&& other) noexcept { MoveFrom(other); }

  SimCallback& operator=(SimCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  SimCallback(const SimCallback&) = delete;
  SimCallback& operator=(const SimCallback&) = delete;

  ~SimCallback() { Reset(); }

  void operator()() { ops_->invoke(&storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

 private:
  union Storage {
    alignas(std::max_align_t) unsigned char buf[kInlineSize];
    void* ptr;
  };

  struct VTable {
    void (*invoke)(Storage*);
    // Move the payload from src into (uninitialized) dst and destroy src.
    void (*relocate)(Storage* dst, Storage* src);
    void (*destroy)(Storage*);
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* Get(Storage* s) {
      return std::launder(reinterpret_cast<Fn*>(s->buf));
    }
    static void Invoke(Storage* s) { (*Get(s))(); }
    static void Relocate(Storage* dst, Storage* src) {
      ::new (static_cast<void*>(dst->buf)) Fn(std::move(*Get(src)));
      Get(src)->~Fn();
    }
    static void Destroy(Storage* s) { Get(s)->~Fn(); }
    static constexpr VTable vtable{&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct PooledOps {
    static void Invoke(Storage* s) { (*static_cast<Fn*>(s->ptr))(); }
    static void Relocate(Storage* dst, Storage* src) {
      dst->ptr = src->ptr;
      src->ptr = nullptr;
    }
    static void Destroy(Storage* s) {
      static_cast<Fn*>(s->ptr)->~Fn();
      SimCallbackPool::Release(s->ptr,
                               SimCallbackPool::ClassFor(sizeof(Fn)));
    }
    static constexpr VTable vtable{&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static void Invoke(Storage* s) { (*static_cast<Fn*>(s->ptr))(); }
    static void Relocate(Storage* dst, Storage* src) {
      dst->ptr = src->ptr;
      src->ptr = nullptr;
    }
    static void Destroy(Storage* s) { delete static_cast<Fn*>(s->ptr); }
    static constexpr VTable vtable{&Invoke, &Relocate, &Destroy};
  };

  void MoveFrom(SimCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(&storage_, &other.storage_);
      other.ops_ = nullptr;
    }
  }

  Storage storage_;
  const VTable* ops_ = nullptr;
};

// A pooled event. `seq` doubles as the handle generation: it is set to a
// sentinel when the event fires or is canceled, so stale handles cannot
// touch a recycled node.
struct EventNode {
  static constexpr std::int64_t kDead = -1;

  SimTime when = 0;
  std::int64_t seq = kDead;
  SimCallback cb;
  EventNode* next_free = nullptr;
};

// Cancelable reference to a scheduled event. Default-constructed handles are
// inert; Cancel on a fired/canceled/recycled event is a no-op.
struct EventHandle {
  EventNode* node = nullptr;
  std::int64_t seq = EventNode::kDead;

  bool has_value() const { return node != nullptr; }
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  ~EventQueue() = default;  // blocks_ destroys nodes (and live callbacks)

  bool empty() const { return live_ == 0; }
  std::int64_t size() const { return live_; }

  // Earliest live timestamp; callers must check !empty() first.
  SimTime NextWhen() {
    SkipDead();
    return heap_.front().when;
  }

  EventHandle Push(SimTime when, SimCallback cb) {
    EventNode* node = Allocate();
    node->when = when;
    node->seq = next_seq_++;
    node->cb = std::move(cb);
    heap_.push_back(Entry{when, node->seq, node});
    SiftUp(heap_.size() - 1);
    ++live_;
    return EventHandle{node, node->seq};
  }

  // True when the event was still pending; destroys its callback eagerly.
  bool Cancel(const EventHandle& handle) {
    if (handle.node == nullptr || handle.seq == EventNode::kDead ||
        handle.node->seq != handle.seq) {
      return false;
    }
    handle.node->seq = EventNode::kDead;
    handle.node->cb.Reset();
    --live_;
    return true;
  }

  // Detach the earliest live event, skipping canceled nodes. The caller
  // invokes node->cb() and then returns the node with Recycle(). Returns
  // nullptr when no live event remains.
  EventNode* PopLive() {
    SkipDead();
    if (heap_.empty()) return nullptr;
    EventNode* node = heap_.front().node;
    PopRoot();
    node->seq = EventNode::kDead;  // firing: handles can no longer cancel
    --live_;
    return node;
  }

  void Recycle(EventNode* node) {
    node->cb.Reset();
    node->next_free = free_head_;
    free_head_ = node;
  }

 private:
  // Heap entries are trivially copyable; the callback stays in the node.
  struct Entry {
    SimTime when;
    std::int64_t seq;
    EventNode* node;
  };

  static bool Earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  static constexpr std::size_t kBlockSize = 512;

  EventNode* Allocate() {
    if (free_head_ == nullptr) {
      blocks_.push_back(std::make_unique<EventNode[]>(kBlockSize));
      EventNode* block = blocks_.back().get();
      for (std::size_t i = kBlockSize; i-- > 0;) {
        block[i].next_free = free_head_;
        free_head_ = &block[i];
      }
    }
    EventNode* node = free_head_;
    free_head_ = node->next_free;
    return node;
  }

  // Drop canceled entries surfacing at the root so the front is live.
  void SkipDead() {
    while (!heap_.empty()) {
      const Entry& top = heap_.front();
      if (top.node->seq == top.seq) return;  // live
      EventNode* node = top.node;
      PopRoot();
      Recycle(node);
    }
  }

  void PopRoot() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
  }

  void SiftUp(std::size_t i) {
    const Entry entry = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!Earlier(entry, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = entry;
  }

  void SiftDown(std::size_t i) {
    const Entry entry = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (Earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Earlier(heap_[best], entry)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = entry;
  }

  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<EventNode[]>> blocks_;
  EventNode* free_head_ = nullptr;
  std::int64_t next_seq_ = 0;
  std::int64_t live_ = 0;
};

}  // namespace ckpt
