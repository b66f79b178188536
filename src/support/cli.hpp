// Tiny command-line flag parser for the tools, examples and bench harnesses.
// Supports --name=value, --name value, and boolean --name forms. A tool that
// declares its flags (FlagSpec) gets its usage text and its check for
// undeclared flags from that one list.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ith {

/// One flag a tool accepts: its name without dashes, an argument
/// placeholder (empty for a boolean flag) and its description, whose
/// continuation lines start after a '\n'.
struct FlagSpec {
  std::string name;
  std::string arg;
  std::string help;
};

/// "usage: <tool> [flags]", then one aligned line per declared flag.
std::string usage_text(const std::string& tool, const std::vector<FlagSpec>& flags);

class CliParser {
 public:
  CliParser(int argc, const char* const* argv);

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int_or(const std::string& name, std::int64_t fallback) const;
  double get_double_or(const std::string& name, double fallback) const;
  bool get_bool_or(const std::string& name, bool fallback) const;

  /// True when every flag given is declared in `flags` and no positional
  /// argument was given. --help is never declared, so it fails this too.
  bool only_declared(const std::vector<FlagSpec>& flags) const;

  /// Non-flag positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ith
