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
  const std::uint32_t slot = slot_count_;
  if (slot > kSlotMask) throw std::length_error("EventQueue: too many events");
  if ((slot & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Task[]>(kChunkSize));
  }
  ++slot_count_;
  return slot;
}

void EventQueue::push(TimeMs at, std::uint32_t slot) {
  heap_.push_back({std::max(at, now_), (next_seq_++ << kSlotBits) | slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::size_t EventQueue::run(TimeMs until) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().at <= until) {
    const Key key = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    const auto slot = static_cast<std::uint32_t>(key.id & kSlotMask);
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
