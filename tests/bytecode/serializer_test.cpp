#include "bytecode/serializer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "bytecode/builder.hpp"
#include "support/error.hpp"
#include "testing.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace ith::bc {
namespace {

TEST(Serializer, RoundTripsFixtures) {
  for (const Program& p : {ith::test::make_add_program(), ith::test::make_loop_program(),
                           ith::test::make_fib_program(), ith::test::make_globals_program()}) {
    const std::string text = dump_program(p);
    const Program back = parse_program(text);
    EXPECT_EQ(back, p) << text;
  }
}

TEST(Serializer, RoundTripsEveryWorkload) {
  for (const std::string& name : wl::spec_names()) {
    const Program p = wl::make_workload(name).program;
    EXPECT_EQ(parse_program(dump_program(p)), p) << name;
  }
  for (const std::string& name : wl::dacapo_names()) {
    const Program p = wl::make_workload(name).program;
    EXPECT_EQ(parse_program(dump_program(p)), p) << name;
  }
}

TEST(Serializer, PreservesSemantics) {
  const Program p = ith::test::make_fib_program(12);
  const Program back = parse_program(dump_program(p));
  EXPECT_EQ(ith::test::run_exit_value(back), ith::test::run_exit_value(p));
}

TEST(Serializer, ParsesHandWrittenAssembly) {
  const std::string text = R"(
program name=demo globals=8 entry=main
# a comment line
method helper args=1 locals=1 {
  load 0
  const 2
  mul
  ret
}
method main args=0 locals=0 {
  const 21
  call helper 1
  halt
}
)";
  const Program p = parse_program(text);
  EXPECT_EQ(p.name(), "demo");
  EXPECT_EQ(p.globals_size(), 8u);
  EXPECT_EQ(ith::test::run_exit_value(p), 42);
}

TEST(Serializer, RejectsUnknownOpcode) {
  const std::string text =
      "program name=x globals=0 entry=main\nmethod main args=0 locals=0 {\n  zap 1\n}\n";
  EXPECT_THROW(parse_program(text), Error);
}

TEST(Serializer, RejectsUnknownCallee) {
  const std::string text =
      "program name=x globals=0 entry=main\nmethod main args=0 locals=0 {\n  call ghost 0\n  halt\n}\n";
  EXPECT_THROW(parse_program(text), Error);
}

TEST(Serializer, RejectsMissingHeader) {
  EXPECT_THROW(parse_program("method main args=0 locals=0 {\n  halt\n}\n"), Error);
}

TEST(Serializer, RejectsUnterminatedMethod) {
  const std::string text = "program name=x globals=0 entry=main\nmethod main args=0 locals=0 {\n  halt\n";
  EXPECT_THROW(parse_program(text), Error);
}

TEST(Serializer, RejectsTrailingTokens) {
  const std::string text =
      "program name=x globals=0 entry=main\nmethod main args=0 locals=0 {\n  halt extra\n}\n";
  EXPECT_THROW(parse_program(text), Error);
}

TEST(Serializer, RejectsUnknownEntry) {
  const std::string text =
      "program name=x globals=0 entry=nosuch\nmethod main args=0 locals=0 {\n  halt\n}\n";
  EXPECT_THROW(parse_program(text), Error);
}

TEST(Serializer, ParserVerifiesResult) {
  // Structurally parseable but semantically broken (stack underflow).
  const std::string text =
      "program name=x globals=0 entry=main\nmethod main args=0 locals=0 {\n  add\n  halt\n}\n";
  EXPECT_THROW(parse_program(text), Error);
}

/// Expects `text` to be rejected with an ith::Error naming `line`.
void expect_rejected_at(const std::string& text, int line) {
  try {
    const Program p = parse_program(text);
    ADD_FAILURE() << "accepted:\n" << text << "as:\n" << dump_program(p);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line) + ":"), std::string::npos)
        << e.what();
  }
}

/// A one-method program whose main body is `body`; the body starts on line 3.
std::string main_with(const std::string& body, const std::string& locals = "0",
                      const std::string& globals = "0") {
  return "program name=x globals=" + globals + " entry=main\nmethod main args=0 locals=" +
         locals + " {\n" + body + "}\n";
}

// Each value below would wrap to a small, valid one if narrowed.
TEST(Serializer, RejectsConstOutOfRange) {
  expect_rejected_at(main_with("  const 8589934597\n  halt\n"), 3);   // 2^33 + 5
  expect_rejected_at(main_with("  const -2147483649\n  halt\n"), 3);  // INT32_MIN - 1
  expect_rejected_at(main_with("  const 2147483648\n  halt\n"), 3);   // INT32_MAX + 1
}

TEST(Serializer, RejectsLocalIndexOutOfRange) {
  expect_rejected_at(main_with("  const 1\n  store 0\n  load 4294967296\n  halt\n", "1"), 5);
  expect_rejected_at(main_with("  const 1\n  store 4294967296\n  load 0\n  halt\n", "1"), 4);
}

TEST(Serializer, RejectsJumpTargetOutOfRange) {
  expect_rejected_at(main_with("  jmp 4294967297\n  halt\n"), 3);
  expect_rejected_at(main_with("  const 0\n  jz 4294967298\n  halt\n"), 4);
  expect_rejected_at(main_with("  const 0\n  jnz -4294967294\n  halt\n"), 4);
}

TEST(Serializer, RejectsCallArgCountOutOfRange) {
  const std::string text =
      "program name=x globals=0 entry=main\n"
      "method f args=1 locals=1 {\n  load 0\n  ret\n}\n"
      "method main args=0 locals=0 {\n  const 1\n  call f 4294967297\n  halt\n}\n";
  expect_rejected_at(text, 8);
}

TEST(Serializer, RejectsArgsOutOfRange) {
  const auto with_f = [](const std::string& args) {
    return "program name=x globals=0 entry=main\n"
           "method f args=" + args + " locals=" + args + " {\n  const 0\n  ret\n}\n"
           "method main args=0 locals=0 {\n  const 1\n  call f 1\n  halt\n}\n";
  };
  expect_rejected_at(with_f("4294967297"), 2);
  expect_rejected_at(with_f(std::to_string(kMaxLocals + 1)), 2);
  expect_rejected_at(with_f("-1"), 2);
  expect_rejected_at(
      "program name=x globals=0 entry=main\nmethod main args=2 locals=1 {\n  const 1\n  halt\n}\n",
      2);  // fewer locals than arguments
}

TEST(Serializer, RejectsLocalsOutOfRange) {
  expect_rejected_at(main_with("  const 1\n  halt\n", "4294967297"), 2);
  expect_rejected_at(main_with("  const 1\n  halt\n", "2000000000"), 2);
  expect_rejected_at(main_with("  const 1\n  halt\n", std::to_string(kMaxLocals + 1)), 2);
  expect_rejected_at(main_with("  const 1\n  halt\n", "-1"), 2);
  EXPECT_EQ(parse_program(main_with("  const 1\n  halt\n", std::to_string(kMaxLocals)))
                .method(0)
                .num_locals(),
            kMaxLocals);
}

TEST(Serializer, RejectsGlobalsOutOfRange) {
  expect_rejected_at(main_with("  const 1\n  halt\n", "0", "-1"), 1);
  expect_rejected_at(main_with("  const 1\n  halt\n", "0", "1099511627776"), 1);  // 2^40
  expect_rejected_at(main_with("  const 1\n  halt\n", "0", std::to_string(kMaxGlobals + 1)), 1);
  EXPECT_EQ(parse_program(main_with("  const 1\n  halt\n", "0", std::to_string(kMaxGlobals)))
                .globals_size(),
            static_cast<std::size_t>(kMaxGlobals));
}

TEST(Serializer, RejectsDuplicateMethodName) {
  // A second `main` is an input error: it must name the line of the
  // repeated header, not the library's own source location.
  const std::string text =
      "program name=x globals=0 entry=main\nmethod main args=0 locals=0 {\n  halt\n}\n"
      "method main args=0 locals=0 {\n  halt\n}\n";
  try {
    parse_program(text);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("parse: line 5: duplicate method name 'main'", 0), 0u) << what;
  }
}

TEST(Serializer, ErrorsCarryLineNumbers) {
  const std::string text =
      "program name=x globals=0 entry=main\nmethod main args=0 locals=0 {\n  zap\n}\n";
  try {
    parse_program(text);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

// The Binary suite keeps the names of the tests of the binary program
// format that the assembly text replaced; each now checks the text, the
// only serialized form of a program.

TEST(Binary, RoundTripsEveryWorkload) {
  // Text is canonical: re-dumping a parsed workload reproduces its bytes, so
  // a checked-in program rewritten by a tool shows no diff.
  for (const std::string& suite : {std::string("specjvm98"), std::string("dacapo+jbb")}) {
    for (const wl::Workload& w : wl::make_suite(suite)) {
      const std::string text = dump_program(w.program);
      EXPECT_EQ(dump_program(parse_program(text)), text) << w.name;
    }
  }
}

TEST(Binary, RoundTripsRandomSyntheticPrograms) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    wl::SyntheticSpec spec;
    spec.seed = seed;
    spec.n_blobs = static_cast<int>(seed % 3);
    spec.n_recursive = 1;
    const Program p = wl::make_synthetic(spec);
    EXPECT_EQ(parse_program(dump_program(p)), p) << "seed " << seed;
  }
}

TEST(Binary, PreservesSemantics) {
  for (const Program& p : {ith::test::make_add_program(), ith::test::make_loop_program(),
                           ith::test::make_fib_program(11), ith::test::make_globals_program()}) {
    EXPECT_EQ(ith::test::run_exit_value(parse_program(dump_program(p))),
              ith::test::run_exit_value(p))
        << p.name();
  }
}

TEST(Binary, NegativeOperandsSurvive) {
  // The fuzz generator emits boundary constants, so both int32 extremes
  // must survive the text.
  for (const std::int64_t k : {std::int64_t{-123456}, std::int64_t{-1},
                               std::int64_t{std::numeric_limits<std::int32_t>::min()},
                               std::int64_t{std::numeric_limits<std::int32_t>::max()}}) {
    ProgramBuilder pb("neg");
    pb.method("main", 0, 0).const_(k).halt();
    pb.entry("main");
    const Program p = pb.build();
    const Program back = parse_program(dump_program(p));
    EXPECT_EQ(back, p) << k;
    EXPECT_EQ(ith::test::run_exit_value(back), k);
  }
}

TEST(Binary, TruncationRejected) {
  // Every prefix that stops before the last method's closing brace leaves a
  // method unterminated, the header incomplete or the entry undefined.
  const std::string text = dump_program(ith::test::make_loop_program());
  const std::size_t last_brace = text.rfind('}');
  for (std::size_t cut = 0; cut < last_brace; ++cut) {
    EXPECT_THROW(parse_program(text.substr(0, cut)), Error) << "cut at " << cut;
  }
}

TEST(Binary, CorruptOpcodeRejected) {
  // Damage each instruction's mnemonic in turn; the error names its line.
  const std::string text = dump_program(ith::test::make_add_program());
  std::size_t line_start = 0;
  for (int line = 1; line_start < text.size(); ++line) {
    const std::size_t eol = text.find('\n', line_start);
    if (text.compare(line_start, 2, "  ") == 0) {  // an instruction line
      std::string corrupted = text;
      corrupted.insert(std::min(text.find(' ', line_start + 2), eol), "x");
      expect_rejected_at(corrupted, line);
    }
    line_start = eol + 1;
  }
}

}  // namespace
}  // namespace ith::bc
