#include "obs/schema.hpp"

#include "obs/event.hpp"

namespace ith::obs {

namespace {

bool known_category(const std::string& cat) {
  for (const Category c : {Category::kVm, Category::kCompile, Category::kOpt, Category::kInline,
                           Category::kEval, Category::kGa, Category::kServe, Category::kSvc}) {
    if (cat == category_name(c)) return true;
  }
  return false;
}

// Counter events ('C') form the machine-read surface of the trace, so their
// arg keys are held to a registry of known families; span/instant args stay
// free-form (they are human-read annotations).
bool known_counter_family(const std::string& key) {
  for (const char* prefix : {"vm.", "ga.", "sig.", "serve.", "resil.", "eval.", "opt.pass.",
                             "opt.analysis_", "opt.memo_", "svc."}) {
    if (key.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

}  // namespace

std::optional<std::string> validate_event(const JsonValue& record) {
  if (!record.is_object()) return "event is not a JSON object";

  const JsonValue* name = record.find("name");
  if (name == nullptr || !name->is_string() || name->str.empty()) {
    return "missing or empty 'name'";
  }

  const JsonValue* ph = record.find("ph");
  if (ph == nullptr || !ph->is_string() || ph->str.size() != 1) return "missing 'ph'";
  const char phase = ph->str[0];
  if (phase != 'X' && phase != 'i' && phase != 'C' && phase != 'M') {
    return "unknown phase '" + ph->str + "'";
  }

  if (phase != 'M') {
    const JsonValue* cat = record.find("cat");
    if (cat == nullptr || !cat->is_string()) return "missing 'cat'";
    if (!known_category(cat->str)) return "unknown category '" + cat->str + "'";
  }

  const JsonValue* ts = record.find("ts");
  if (ts == nullptr || !ts->is_number() || ts->number < 0) return "missing or negative 'ts'";

  const JsonValue* pid = record.find("pid");
  if (pid == nullptr || !pid->is_number() ||
      (pid->as_int() != static_cast<int>(Domain::kSim) &&
       pid->as_int() != static_cast<int>(Domain::kHost))) {
    return "'pid' must be 1 (sim) or 2 (host)";
  }

  const JsonValue* tid = record.find("tid");
  if (tid == nullptr || !tid->is_number() || tid->number < 0) return "missing or negative 'tid'";

  const JsonValue* dur = record.find("dur");
  if (phase == 'X') {
    if (dur == nullptr || !dur->is_number() || dur->number < 0) {
      return "complete event missing non-negative 'dur'";
    }
  } else if (dur != nullptr) {
    return "'dur' present on a non-complete event";
  }

  if (const JsonValue* args = record.find("args"); args != nullptr) {
    if (!args->is_object()) return "'args' is not an object";
    for (const auto& [key, value] : args->members) {
      if (key.empty()) return "empty arg key";
      if (!value.is_number() && !value.is_string()) {
        return "arg '" + key + "' is neither number nor string";
      }
      if (phase == 'C' && !known_counter_family(key)) {
        return "counter '" + key + "' is not in a known counter family";
      }
    }
  }

  return std::nullopt;
}

}  // namespace ith::obs
