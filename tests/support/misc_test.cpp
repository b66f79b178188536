// Tests for ThreadPool, Table, CsvWriter, CliParser and env helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <vector>

#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace ith {
namespace {

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw Error("boom"); });
  EXPECT_THROW(f.get(), Error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw Error("index 3");
                                 }),
               Error);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::vector<std::future<void>> fs;
  for (int i = 0; i < 500; ++i) {
    fs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : fs) f.get();
  EXPECT_EQ(count.load(), 500);
}

// --- Table ------------------------------------------------------------------

TEST(Table, RendersHeadersAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, EmptyHeadersThrow) { EXPECT_THROW(Table({}), Error); }

TEST(Table, CellFormatters) {
  EXPECT_EQ(cell(1.23456, 2), "1.23");
  EXPECT_EQ(cell(static_cast<long long>(42)), "42");
  EXPECT_EQ(cell_ratio(0.8333), "0.833");
  EXPECT_EQ(cell_percent(17.0), "+17.0%");
  EXPECT_EQ(cell_percent(-5.5), "-5.5%");
}

TEST(Table, AlignmentPadsColumns) {
  Table t({"n", "v"}, {Align::kLeft, Align::kRight});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.render(os);
  // Right-aligned "1" is padded on the left to the width of "22".
  EXPECT_NE(os.str().find("|  1 |"), std::string::npos);
}

// --- CsvWriter ----------------------------------------------------------------

TEST(Csv, PlainFields) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("with\nnewline"), "\"with\nnewline\"");
}

// --- CliParser ----------------------------------------------------------------

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--alpha=5", "--name=x"};
  CliParser cli(3, argv);
  EXPECT_EQ(cli.get_int_or("alpha", 0), 5);
  EXPECT_EQ(cli.get_or("name", ""), "x");
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--alpha", "5"};
  CliParser cli(3, argv);
  EXPECT_EQ(cli.get_int_or("alpha", 0), 5);
}

TEST(Cli, BareBooleanFlag) {
  const char* argv[] = {"prog", "--verbose"};
  CliParser cli(2, argv);
  EXPECT_TRUE(cli.get_bool_or("verbose", false));
  EXPECT_FALSE(cli.get_bool_or("quiet", false));
}

TEST(Cli, Positionals) {
  const char* argv[] = {"prog", "input.txt", "--k=1", "output.txt"};
  CliParser cli(4, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "output.txt");
}

TEST(Cli, OnlyDeclaredCountsFlagsAndPositionals) {
  const std::vector<FlagSpec> flags = {{"k", "N", "a number"}, {"check", "", "a switch"}};
  const char* argv[] = {"prog", "trace.json", "--k=1", "--check"};
  EXPECT_TRUE(CliParser(4, argv).only_declared(flags, 1));
  EXPECT_FALSE(CliParser(4, argv).only_declared(flags));     // one positional too many
  EXPECT_FALSE(CliParser(3, argv).only_declared(flags, 2));  // one too few
  const char* help[] = {"prog", "trace.json", "--help"};
  EXPECT_FALSE(CliParser(3, help).only_declared(flags, 1));
}

TEST(Cli, MalformedIntThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  CliParser cli(2, argv);
  EXPECT_THROW(cli.get_int_or("n", 0), Error);
}

// The resource-shaped flags of serve_tune and fleet_tune, whose misparse
// would start threads, VMs or daemon clients, are covered here instead of
// by running the tools with them.
TEST(Cli, IntInRejectsValuesOutsideTheRange) {
  const char* argv[] = {"prog",
                        "--threads=-1",
                        "--instances=4294967297",
                        "--clients=0",
                        "--requests=-1",
                        "--huge=99999999999999999999",
                        "--empty=",
                        "--junk=12x"};
  CliParser cli(8, argv);
  EXPECT_THROW(cli.get_int_in("threads", 0, 0, 256), UsageError);
  EXPECT_THROW(cli.get_int_in("instances", 4, 1, 256), UsageError);
  EXPECT_THROW(cli.get_int_in("clients", 3, 1, 64), UsageError);
  EXPECT_THROW(cli.get_int_in("requests", 1024, 1, std::numeric_limits<int>::max()), UsageError);
  // strtoll saturates on overflow; the getter must not take the clamp.
  EXPECT_THROW(cli.get_int_in("huge", 0, 0, std::numeric_limits<std::int64_t>::max()),
               UsageError);
  EXPECT_THROW(cli.get_int_in("empty", 0, 0, 10), UsageError);
  EXPECT_THROW(cli.get_int_in("junk", 0, 0, 100), UsageError);
}

TEST(Cli, IntInAcceptsTheRangeAndFallsBackWhenAbsent) {
  const char* argv[] = {"prog", "--threads=256", "--clients=1", "--seed=-5"};
  CliParser cli(4, argv);
  EXPECT_EQ(cli.get_int_in("threads", 0, 0, 256), 256);
  EXPECT_EQ(cli.get_int_in("clients", 3, 1, 64), 1);
  EXPECT_EQ(cli.get_int_in("seed", 7, -5, 5), -5);
  // The fallback is the tool's own value and is not range-checked.
  EXPECT_EQ(cli.get_int_in("kill-at", -1, 0, 10), -1);
  EXPECT_EQ(cli.get_int_in("instances", 4, 1, 256), 4);
}

TEST(Cli, DoubleAndDefaults) {
  const char* argv[] = {"prog", "--x=1.5"};
  CliParser cli(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double_or("x", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(cli.get_double_or("y", 2.5), 2.5);
}

// --- env ----------------------------------------------------------------------

TEST(Env, FallbackWhenUnset) {
  ::unsetenv("ITH_TEST_ENV_VAR");
  EXPECT_EQ(env_or("ITH_TEST_ENV_VAR", "dflt"), "dflt");
  EXPECT_EQ(env_int_or("ITH_TEST_ENV_VAR", 7), 7);
}

TEST(Env, ReadsValue) {
  ::setenv("ITH_TEST_ENV_VAR", "123", 1);
  EXPECT_EQ(env_or("ITH_TEST_ENV_VAR", "dflt"), "123");
  EXPECT_EQ(env_int_or("ITH_TEST_ENV_VAR", 7), 123);
  ::unsetenv("ITH_TEST_ENV_VAR");
}

TEST(Env, MalformedIntThrows) {
  ::setenv("ITH_TEST_ENV_VAR", "12x", 1);
  EXPECT_THROW(env_int_or("ITH_TEST_ENV_VAR", 7), Error);
  ::unsetenv("ITH_TEST_ENV_VAR");
}

}  // namespace
}  // namespace ith
