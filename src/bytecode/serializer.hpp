// Human-readable assembly format for minijvm programs.
//
//   program name=demo globals=64 entry=main
//   method main args=0 locals=2 {
//     const 10
//     store 0
//     call helper 0
//     halt
//   }
//
// Branch targets are printed (and parsed) as absolute instruction indices;
// call targets by method name. dump/parse round-trip exactly. This is the
// only serialized form of a program: the fuzz corpus and shrunk repros are
// `.ithasm` files in it.
#pragma once

#include <iosfwd>
#include <string>

#include "bytecode/program.hpp"

namespace ith::bc {

/// Largest `args=`/`locals=` the parser accepts. Workload methods use at
/// most 3 locals and generated fuzz programs at most 12; every simulated
/// frame allocates its locals, so an unbounded count is a memory hazard.
inline constexpr int kMaxLocals = 256;
/// Largest `globals=` the parser accepts, in words. The suites use 8,192.
inline constexpr long long kMaxGlobals = 1LL << 20;

/// Writes `prog` in the assembly format above.
void dump_program(const Program& prog, std::ostream& os);
std::string dump_program(const Program& prog);

/// Parses a program from the assembly format; throws ith::Error with a line
/// number on malformed input, including an operand outside int32, `args`
/// outside [0, kMaxLocals], `locals` outside [args, kMaxLocals] and `globals`
/// outside [0, kMaxGlobals]. The result is verified before returning.
Program parse_program(std::istream& is);
Program parse_program(const std::string& text);

}  // namespace ith::bc
