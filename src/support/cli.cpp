#include "support/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "support/error.hpp"

namespace ith {

CliParser::CliParser(int argc, const char* const* argv) {
  ITH_CHECK(argc >= 1, "CliParser requires argv[0]");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";  // bare boolean flag
    }
  }
}

std::string usage_text(const std::string& tool, const std::vector<FlagSpec>& flags) {
  constexpr std::size_t kHelpColumn = 26;
  std::string out = "usage: " + tool + " [flags]\n";
  for (const FlagSpec& f : flags) {
    std::string line = "  --" + f.name + (f.arg.empty() ? "" : "=" + f.arg);
    line.resize(std::max(kHelpColumn, line.size() + 2), ' ');
    std::istringstream help(f.help);
    std::string help_line;
    bool first = true;
    while (std::getline(help, help_line)) {
      out += (first ? line : std::string(kHelpColumn, ' ')) + help_line + "\n";
      first = false;
    }
  }
  return out;
}

bool CliParser::only_declared(const std::vector<FlagSpec>& flags) const {
  if (!positional_.empty()) return false;
  return std::all_of(flags_.begin(), flags_.end(), [&](const auto& given) {
    return std::any_of(flags.begin(), flags.end(),
                       [&](const FlagSpec& f) { return f.name == given.first; });
  });
}

bool CliParser::has(const std::string& name) const { return flags_.count(name) != 0; }

std::optional<std::string> CliParser::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string CliParser::get_or(const std::string& name, const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t CliParser::get_int_or(const std::string& name, std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  ITH_CHECK(end && *end == '\0', "flag --" + name + " is not an integer: " + *v);
  return parsed;
}

double CliParser::get_double_or(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  ITH_CHECK(end && *end == '\0', "flag --" + name + " is not a number: " + *v);
  return parsed;
}

bool CliParser::get_bool_or(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw Error("flag --" + name + " is not a boolean: " + *v);
}

}  // namespace ith
