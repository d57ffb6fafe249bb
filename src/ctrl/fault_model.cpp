#include "ctrl/fault_model.hpp"

namespace pm::ctrl {

bool PartitionWindow::cuts(EndpointId x, EndpointId y,
                           double now_ms) const {
  if (now_ms < from_ms || now_ms >= to_ms) return false;
  const auto matches = [](EndpointId want, EndpointId got) {
    return want == kAnyEndpoint || want == got;
  };
  return (matches(a, x) && matches(b, y)) ||
         (matches(a, y) && matches(b, x));
}

bool FaultInjector::partitioned(EndpointId from, EndpointId to,
                                double now_ms) {
  for (const auto& w : model_.partitions) {
    if (w.cuts(from, to, now_ms)) {
      ++stats_.partition_drops;
      return true;
    }
  }
  return false;
}

bool FaultInjector::drop() {
  if (model_.drop_probability <= 0.0) return false;
  if (uniform() >= model_.drop_probability) return false;
  ++stats_.injected_drops;
  return true;
}

double FaultInjector::extra_delay() {
  double extra = 0.0;
  if (model_.jitter_ms > 0.0) {
    extra += uniform() * model_.jitter_ms;
  }
  if (model_.reorder_probability > 0.0 &&
      uniform() < model_.reorder_probability) {
    extra += model_.reorder_delay_ms;
    ++stats_.reordered;
  }
  return extra;
}

bool FaultInjector::duplicate() {
  if (model_.duplicate_probability <= 0.0) return false;
  if (uniform() >= model_.duplicate_probability) return false;
  ++stats_.injected_duplicates;
  return true;
}

}  // namespace pm::ctrl
