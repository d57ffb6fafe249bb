// Minimal discrete-event engine: a time-ordered queue of callbacks.
// Events at equal timestamps fire in scheduling order (stable), which
// keeps simulations deterministic.
//
// Layout: the binary heap holds 16-byte (at, id) keys only; the
// callbacks live in a slab of reused Task slots (inline storage, chunked
// so a slot never moves), and a popped event runs in place — nothing is
// copied or reallocated on the dispatch path. An EventId packs the
// scheduling sequence number (high bits, so ids order like the schedule)
// with the slot index (low bits).
//
// schedule_* returns an EventId that can be cancelled: cancellation is
// lazy (the key stays queued, its callback is destroyed at once and the
// key is skipped on pop), so it is O(1) and does not perturb the
// ordering of surviving events. The protocol agents use it to kill
// stale retransmission timers when a new recovery wave supersedes an
// old one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace pm::sim {

/// Simulated time in milliseconds.
using TimeMs = double;

/// Handle of a scheduled event; 0 is never a valid id.
using EventId = std::uint64_t;

/// A move-only `void()` callable. Callables up to kInlineBytes (a
/// control-message delivery closure is about 90 bytes) live inline;
/// larger ones are boxed on the heap.
class Task {
 public:
  static constexpr std::size_t kInlineBytes = 112;

  Task() = default;
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, Task>>>
  Task(F&& fn) {  // NOLINT(google-explicit-constructor): lambdas convert
    emplace(std::forward<F>(fn));
  }
  Task(Task&& other) noexcept { take(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  /// Replaces the held callable with `fn` (a Task is moved in as is).
  template <typename F>
  void assign(F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, Task>) {
      *this = std::move(fn);
    } else {
      reset();
      emplace(std::forward<F>(fn));
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(storage_); }

  /// Destroys the held callable (and whatever it captured).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Whether a callable of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool stores_inline() {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `to` and destroys the source.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
  };

  template <typename F>
  struct Inline {
    static F& get(void* p) { return *std::launder(static_cast<F*>(p)); }
    static void invoke(void* p) { get(p)(); }
    static void relocate(void* from, void* to) {
      ::new (to) F(std::move(get(from)));
      get(from).~F();
    }
    static void destroy(void* p) { get(p).~F(); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy};
  };

  template <typename F>
  struct Boxed {
    static F*& get(void* p) { return *std::launder(static_cast<F**>(p)); }
    static void invoke(void* p) { (*get(p))(); }
    static void relocate(void* from, void* to) { ::new (to) F*(get(from)); }
    static void destroy(void* p) { delete get(p); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy};
  };

  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (stores_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &Inline<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &Boxed<Fn>::kOps;
    }
  }

  void take(Task& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `at` (>= now, else clamped to now).
  template <typename F>
  EventId schedule_at(TimeMs at, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    task(slot).assign(std::forward<F>(fn));
    return push(at, slot);
  }

  /// Schedules `fn` `delay` ms from now.
  template <typename F>
  EventId schedule_in(TimeMs delay, F&& fn) {
    return schedule_at(now_ + std::max(delay, 0.0), std::forward<F>(fn));
  }

  /// Cancels a pending event so its callback never runs (the callback is
  /// destroyed at once). Returns false, and changes nothing, for
  /// never-issued, already-cancelled, running or already-fired ids.
  bool cancel(EventId id);

  TimeMs now() const { return now_; }

  /// Runs events until the queue empties or `until` is passed.
  /// Returns the number of events executed (cancelled entries excluded).
  std::size_t run(TimeMs until = 1e18);

  bool empty() const { return heap_.empty(); }
  /// Pending entries, including not-yet-popped cancelled ones.
  std::size_t pending() const { return heap_.size(); }

  /// Lifetime dispatch statistics, summed over every run() call; the
  /// observability layer publishes them as simulation metrics.
  std::uint64_t executed_total() const { return executed_total_; }
  std::uint64_t cancelled_skipped_total() const {
    return cancelled_skipped_total_;
  }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr int kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1U << kChunkBits;

  struct Key {
    TimeMs at;
    EventId id;  // (seq << kSlotBits) | slot: orders like seq
  };

  Task& task(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }
  std::uint32_t acquire_slot();
  EventId push(TimeMs at, std::uint32_t slot);

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Task[]>> chunks_;
  /// The id each slot's pending event carries; 0 once it runs, is
  /// cancelled or the slot is free.
  std::vector<EventId> slot_ids_;
  std::vector<std::uint32_t> free_slots_;
  TimeMs now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_total_ = 0;
  std::uint64_t cancelled_skipped_total_ = 0;
};

}  // namespace pm::sim
