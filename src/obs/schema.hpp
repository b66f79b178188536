// Trace-event schema validation: the "small checker" CI runs over every
// uploaded trace. A valid event record is a JSON object with
//
//   name : non-empty string
//   cat  : one of vm|compile|opt|inline|eval|ga  (metadata events exempt)
//   ph   : "X" | "i" | "C" | "M"
//   ts   : number >= 0
//   pid  : 1 (sim cycle domain) or 2 (host microsecond domain)
//   tid  : number >= 0
//   dur  : number >= 0, required iff ph == "X"
//   args : object of string -> number|string (optional)
//
// Counter events ("C") additionally require every arg key to belong to a
// registered counter family (vm. | ga. | sig. | serve. | resil. | eval. |
// rt.fused* | opt.pass. | opt.analysis_ | opt.memo_ | svc.) so dashboards
// never silently chart a typo'd counter name. opt.memo_hits / _misses /
// _evictions are the evaluator's body memo (opt/body_memo.hpp).
//
// trace_report uses the same routine, so "validates in CI" and "parses in
// the report tool" can never drift apart.
#pragma once

#include <optional>
#include <string>

#include "support/json.hpp"

namespace ith::obs {

/// Returns std::nullopt if `record` is a valid trace event, else a
/// human-readable description of the first violation.
std::optional<std::string> validate_event(const JsonValue& record);

}  // namespace ith::obs
