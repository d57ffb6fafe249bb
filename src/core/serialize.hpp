// JSON serialization of recovery plans and metrics — lets operators
// persist a computed plan, audit or diff it, and replay it later (the
// examples expose this via --json flags).
#pragma once

#include "core/metrics.hpp"
#include "core/recovery_plan.hpp"
#include "util/json.hpp"

namespace pm::core {

util::JsonValue plan_to_json(const RecoveryPlan& plan);

/// Rebuilds a plan from JSON. Throws std::runtime_error on malformed or
/// incomplete documents (missing keys, wrong types).
RecoveryPlan plan_from_json(const util::JsonValue& json);

util::JsonValue metrics_to_json(const RecoveryMetrics& metrics);

/// One self-contained case report: scenario label, plan and metrics.
/// The tree form; write_case_report must produce its compact bytes.
util::JsonValue case_report_to_json(const std::string& label,
                                    const RecoveryPlan& plan,
                                    const RecoveryMetrics& metrics);

/// The same case report streamed straight into a string, with no JSON
/// tree: byte-identical to case_report_to_json(...).to_string(0), using
/// util::json's number and string spellings. The result carries no
/// spare capacity, so a cache that charges size() charges what is
/// resident.
std::string write_case_report(const std::string& label,
                              const RecoveryPlan& plan,
                              const RecoveryMetrics& metrics);

}  // namespace pm::core
