#include "bytecode/serializer.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "bytecode/verifier.hpp"
#include "support/error.hpp"

namespace ith::bc {

void dump_program(const Program& prog, std::ostream& os) {
  os << "program name=" << prog.name() << " globals=" << prog.globals_size()
     << " entry=" << prog.method(prog.entry()).name() << "\n";
  for (const Method& m : prog.methods()) {
    os << "method " << m.name() << " args=" << m.num_args() << " locals=" << m.num_locals()
       << " {\n";
    for (const Instruction& insn : m.code()) {
      const OpInfo& info = op_info(insn.op);
      os << "  " << info.name;
      switch (insn.op) {
        case Op::kConst:
        case Op::kLoad:
        case Op::kStore:
          os << ' ' << insn.a;
          break;
        case Op::kJmp:
        case Op::kJz:
        case Op::kJnz:
          os << ' ' << insn.a;
          break;
        case Op::kCall:
          os << ' ' << prog.method(insn.a).name() << ' ' << insn.b;
          break;
        default:
          break;
      }
      os << '\n';
    }
    os << "}\n";
  }
}

std::string dump_program(const Program& prog) {
  std::ostringstream os;
  dump_program(prog, os);
  return os.str();
}

namespace {

struct PendingCall {
  MethodId method;
  std::size_t pc;
  std::string callee;
  int line;
};

[[noreturn]] void parse_fail(int line, const std::string& why) {
  throw Error("parse: line " + std::to_string(line) + ": " + why);
}

/// Extracts "key=value" from a token; throws on mismatch.
std::string expect_kv(const std::string& token, const std::string& key, int line) {
  const std::string prefix = key + "=";
  if (token.rfind(prefix, 0) != 0) parse_fail(line, "expected '" + key + "=...', got '" + token + "'");
  return token.substr(prefix.size());
}

/// Parses a base-10 integer in [lo, hi]; a value outside it is an error, so
/// nothing narrows or wraps on its way into the program.
long long to_int(const std::string& s, long long lo, long long hi, int line) {
  long long v = 0;
  std::size_t pos = 0;
  try {
    v = std::stoll(s, &pos);
  } catch (const std::exception&) {
    parse_fail(line, "not an integer: '" + s + "'");
  }
  if (pos != s.size()) parse_fail(line, "trailing characters in integer '" + s + "'");
  if (v < lo || v > hi) {
    parse_fail(line, "'" + s + "' is outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
                         "]");
  }
  return v;
}

/// An instruction operand: any int32.
std::int32_t to_operand(const std::string& s, int line) {
  return static_cast<std::int32_t>(to_int(s, std::numeric_limits<std::int32_t>::min(),
                                          std::numeric_limits<std::int32_t>::max(), line));
}

}  // namespace

Program parse_program(std::istream& is) {
  Program prog;
  std::string entry_name;
  std::vector<PendingCall> pending_calls;

  Method* current = nullptr;
  MethodId current_id = -1;
  std::string line;
  int lineno = 0;
  bool saw_header = false;

  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok)) continue;  // blank line
    if (tok[0] == '#') continue; // comment

    if (tok == "program") {
      if (saw_header) parse_fail(lineno, "duplicate program header");
      saw_header = true;
      std::string name_kv, globals_kv, entry_kv;
      if (!(ls >> name_kv >> globals_kv >> entry_kv)) parse_fail(lineno, "malformed program header");
      const long long globals =
          to_int(expect_kv(globals_kv, "globals", lineno), 0, kMaxGlobals, lineno);
      prog = Program(expect_kv(name_kv, "name", lineno), static_cast<std::size_t>(globals));
      entry_name = expect_kv(entry_kv, "entry", lineno);
      continue;
    }

    if (tok == "method") {
      if (!saw_header) parse_fail(lineno, "method before program header");
      if (current != nullptr) parse_fail(lineno, "method inside unterminated method");
      std::string name, args_kv, locals_kv, brace;
      if (!(ls >> name >> args_kv >> locals_kv >> brace) || brace != "{") {
        parse_fail(lineno, "malformed method header");
      }
      const auto args =
          static_cast<int>(to_int(expect_kv(args_kv, "args", lineno), 0, kMaxLocals, lineno));
      // Arguments occupy the first locals.
      const auto locals = static_cast<int>(
          to_int(expect_kv(locals_kv, "locals", lineno), args, kMaxLocals, lineno));
      if (prog.has_method(name)) parse_fail(lineno, "duplicate method name '" + name + "'");
      current_id = prog.add_method(Method(name, args, locals));
      current = &prog.mutable_method(current_id);
      continue;
    }

    if (tok == "}") {
      if (current == nullptr) parse_fail(lineno, "'}' outside a method");
      current = nullptr;
      continue;
    }

    // Ordinary instruction line.
    if (current == nullptr) parse_fail(lineno, "instruction outside a method");
    Op op;
    if (!op_from_name(tok, op)) parse_fail(lineno, "unknown opcode '" + tok + "'");
    Instruction insn{op, 0, 0};
    switch (op) {
      case Op::kConst:
      case Op::kLoad:
      case Op::kStore:
      case Op::kJmp:
      case Op::kJz:
      case Op::kJnz: {
        std::string a;
        if (!(ls >> a)) parse_fail(lineno, "missing operand");
        insn.a = to_operand(a, lineno);
        break;
      }
      case Op::kCall: {
        std::string callee, nargs;
        if (!(ls >> callee >> nargs)) parse_fail(lineno, "call needs 'callee nargs'");
        insn.a = -1;  // patched after all methods are known
        insn.b = to_operand(nargs, lineno);
        pending_calls.push_back({current_id, current->size(), callee, lineno});
        break;
      }
      default:
        break;
    }
    std::string extra;
    if (ls >> extra) parse_fail(lineno, "unexpected trailing token '" + extra + "'");
    current->append(insn);
  }

  if (!saw_header) throw Error("parse: missing program header");
  if (current != nullptr) throw Error("parse: unterminated method at end of input");

  for (const PendingCall& pc : pending_calls) {
    if (!prog.has_method(pc.callee)) parse_fail(pc.line, "call to unknown method '" + pc.callee + "'");
    prog.mutable_method(pc.method).mutable_code()[pc.pc].a = prog.find_method(pc.callee);
  }

  prog.set_entry(prog.find_method(entry_name));
  verify_program(prog);
  return prog;
}

Program parse_program(const std::string& text) {
  std::istringstream is(text);
  return parse_program(is);
}

}  // namespace ith::bc
