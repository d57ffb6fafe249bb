#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace pm::sim {

namespace {

/// Heap order: earliest time first, scheduling order among equals.
struct Later {
  template <typename Key>
  bool operator()(const Key& a, const Key& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.id > b.id;
  }
};

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slot_ids_.size());
  if (slot > kSlotMask) throw std::length_error("EventQueue: too many events");
  if ((slot & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Task[]>(kChunkSize));
  }
  slot_ids_.push_back(0);
  return slot;
}

EventId EventQueue::push(TimeMs at, std::uint32_t slot) {
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slot_ids_[slot] = id;
  heap_.push_back({std::max(at, now_), id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t slot = id & kSlotMask;
  if (id == 0 || slot >= slot_ids_.size() || slot_ids_[slot] != id) {
    return false;
  }
  // The key stays queued (and the slot reserved) until it is popped.
  slot_ids_[slot] = 0;
  task(static_cast<std::uint32_t>(slot)).reset();
  return true;
}

std::size_t EventQueue::run(TimeMs until) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().at <= until) {
    const Key key = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    const auto slot = static_cast<std::uint32_t>(key.id & kSlotMask);
    if (slot_ids_[slot] != key.id) {
      ++cancelled_skipped_total_;
      free_slots_.push_back(slot);
      continue;
    }
    slot_ids_[slot] = 0;
    now_ = key.at;
    ++executed;
    // Chunks never move, so the task runs in place even if it schedules
    // (and grows the slab); its slot is recycled only afterwards.
    Task& fn = task(slot);
    fn();
    fn.reset();
    free_slots_.push_back(slot);
  }
  executed_total_ += executed;
  return executed;
}

}  // namespace pm::sim
