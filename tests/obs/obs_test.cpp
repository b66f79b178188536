// Observability unit tests: event JSON serialization and escaping, the
// category mask, Context emission/counters/flush semantics, ScopedSpan,
// sink round-trips (JSONL lines and the Chrome document both parse back
// through support/json), and the schema validator that CI runs on traces.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/context.hpp"
#include "obs/event.hpp"
#include "obs/schema.hpp"
#include "obs/sink.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace ith::obs {
namespace {

Event make_span(const char* name, std::uint64_t ts, std::uint64_t dur) {
  Event e;
  e.name = name;
  e.cat = Category::kCompile;
  e.phase = Phase::kComplete;
  e.domain = Domain::kSim;
  e.ts = ts;
  e.dur = dur;
  return e;
}

// --- event JSON ---------------------------------------------------------

TEST(ObsEvent, CompleteEventSerializesAllFields) {
  Event e = make_span("compile.opt", 100, 42);
  e.tid = 3;
  e.args.emplace_back("method", "main");
  e.args.emplace_back("size_words", std::size_t{7});
  e.args.emplace_back("ratio", 0.5);
  std::string out;
  append_event_json(e, out);
  EXPECT_EQ(out,
            "{\"name\":\"compile.opt\",\"cat\":\"compile\",\"ph\":\"X\",\"ts\":100,"
            "\"dur\":42,\"pid\":1,\"tid\":3,\"args\":{\"method\":\"main\","
            "\"size_words\":7,\"ratio\":0.5}}");
}

TEST(ObsEvent, InstantEventOmitsDurAndEmptyArgs) {
  Event e;
  e.name = "vm.promote";
  e.cat = Category::kVm;
  e.phase = Phase::kInstant;
  e.domain = Domain::kHost;
  e.ts = 9;
  std::string out;
  append_event_json(e, out);
  EXPECT_EQ(out, "{\"name\":\"vm.promote\",\"cat\":\"vm\",\"ph\":\"i\",\"ts\":9,\"pid\":2,\"tid\":0}");
}

TEST(ObsEvent, StringArgsAreJsonEscaped) {
  Event e;
  e.name = "vm.install";
  e.phase = Phase::kInstant;
  e.args.emplace_back("method", std::string("a\"b\\c\nd\te\x01"));
  std::string out;
  append_event_json(e, out);
  EXPECT_NE(out.find("\"a\\\"b\\\\c\\nd\\te\\u0001\""), std::string::npos);
  // The escaped record must still be valid JSON and round-trip the string.
  const JsonValue v = parse_json(out);
  const JsonValue* args = v.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("method")->str, "a\"b\\c\nd\te\x01");
}

TEST(ObsEvent, CategoryNamesRoundTripThroughMaskParser) {
  for (const Category c : {Category::kVm, Category::kCompile, Category::kOpt, Category::kInline,
                           Category::kEval, Category::kGa}) {
    EXPECT_EQ(category_mask_from_string(category_name(c)), static_cast<std::uint32_t>(c));
  }
}

TEST(ObsEvent, CategoryMaskParsesListsAndAll) {
  EXPECT_EQ(category_mask_from_string(""), kAllCategories);
  EXPECT_EQ(category_mask_from_string("all"), kAllCategories);
  EXPECT_EQ(category_mask_from_string("eval,ga"),
            static_cast<std::uint32_t>(Category::kEval) | static_cast<std::uint32_t>(Category::kGa));
  EXPECT_THROW(category_mask_from_string("bogus"), Error);
  EXPECT_THROW(category_mask_from_string("vm,"), Error);
}

// --- Context ------------------------------------------------------------

TEST(ObsContext, NullSinkDisablesEverything) {
  Context ctx(nullptr);
  EXPECT_FALSE(ctx.enabled(Category::kVm));
  ctx.instant(Category::kVm, "x", Domain::kHost, 0);  // must not crash
  // Counters still accumulate so final totals survive a sinkless run.
  ctx.counter("vm.promotions").add(2);
  ASSERT_EQ(ctx.counter_values().size(), 1u);
  EXPECT_EQ(ctx.counter_values()[0].second, 2u);
  ctx.flush();  // no sink: no-op
}

TEST(ObsContext, CategoryMaskSuppressesAtEmitSite) {
  MemorySink sink;
  Context ctx(&sink, static_cast<std::uint32_t>(Category::kGa));
  EXPECT_TRUE(ctx.enabled(Category::kGa));
  EXPECT_FALSE(ctx.enabled(Category::kVm));
  ctx.instant(Category::kVm, "vm.promote", Domain::kHost, 1);
  ctx.instant(Category::kGa, "ga.generation", Domain::kHost, 2);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_STREQ(sink.events()[0].name, "ga.generation");
}

TEST(ObsContext, CompleteEmitsSpanWithDuration) {
  MemorySink sink;
  Context ctx(&sink);
  ctx.complete(Category::kCompile, "compile.baseline", Domain::kSim, 10, 32,
               {{"method", "main"}});
  ASSERT_EQ(sink.size(), 1u);
  const Event e = sink.events()[0];
  EXPECT_EQ(e.phase, Phase::kComplete);
  EXPECT_EQ(e.domain, Domain::kSim);
  EXPECT_EQ(e.ts, 10u);
  EXPECT_EQ(e.dur, 32u);
  ASSERT_EQ(e.args.size(), 1u);
  EXPECT_EQ(e.args[0].key, "method");
}

TEST(ObsContext, CounterHandleIsStableAndFlushEmitsCounterEvents) {
  MemorySink sink;
  // Mask out everything: flush's counter export must bypass the mask.
  Context ctx(&sink, static_cast<std::uint32_t>(Category::kGa));
  Counter& c = ctx.counter("vm.compiles.opt");
  EXPECT_EQ(&c, &ctx.counter("vm.compiles.opt"));
  c.add();
  c.add(4);
  ctx.counter("ga.evaluations").add(9);
  ctx.flush();
  ASSERT_EQ(sink.size(), 2u);
  for (const Event& e : sink.events()) {
    EXPECT_EQ(e.phase, Phase::kCounter);
    EXPECT_STREQ(e.name, "counters");
    ASSERT_EQ(e.args.size(), 1u);
  }
  // counter_values() is sorted by name, and flush preserves that order.
  EXPECT_EQ(sink.events()[0].args[0].key, "ga.evaluations");
  EXPECT_EQ(sink.events()[1].args[0].key, "vm.compiles.opt");
  EXPECT_EQ(std::get<std::int64_t>(sink.events()[1].args[0].value), 5);
}

TEST(ObsContext, ScopedSpanEmitsOnDestructionWithAppendedArgs) {
  MemorySink sink;
  Context ctx(&sink);
  {
    ScopedSpan span(&ctx, Category::kEval, "eval.suite", {{"benchmarks", 5}});
    span.arg("cache_hit", false);
  }
  ASSERT_EQ(sink.size(), 1u);
  const Event e = sink.events()[0];
  EXPECT_STREQ(e.name, "eval.suite");
  EXPECT_EQ(e.phase, Phase::kComplete);
  EXPECT_EQ(e.domain, Domain::kHost);
  ASSERT_EQ(e.args.size(), 2u);
  EXPECT_EQ(e.args[1].key, "cache_hit");
}

TEST(ObsContext, ScopedSpanIsInertWhenNullOrMasked) {
  { ScopedSpan span(nullptr, Category::kEval, "eval.suite"); }
  MemorySink sink;
  Context ctx(&sink, static_cast<std::uint32_t>(Category::kGa));
  { ScopedSpan span(&ctx, Category::kEval, "eval.suite"); }
  EXPECT_EQ(sink.size(), 0u);
}

// --- sinks --------------------------------------------------------------

TEST(ObsSink, JsonlLinesParseAndValidate) {
  std::ostringstream os;
  {
    JsonlSink sink(os, /*buffer_bytes=*/16);  // tiny buffer: force spills
    sink.write(make_span("compile.opt", 0, 10));
    Event i;
    i.name = "vm.promote";
    i.cat = Category::kVm;
    i.phase = Phase::kInstant;
    i.domain = Domain::kSim;
    sink.write(i);
  }  // destructor flushes the tail
  std::istringstream lines(os.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    const JsonValue v = parse_json(line);
    EXPECT_EQ(validate_event(v), std::nullopt) << line;
  }
  // Two process-naming metadata events precede the two payload events.
  EXPECT_EQ(n, timebase_metadata().size() + 2);
}

TEST(ObsSink, ChromeDocumentParsesBackAsTraceEvents) {
  std::ostringstream os;
  {
    ChromeTraceSink sink(os);
    sink.write(make_span("compile.baseline", 5, 7));
    sink.write(make_span("compile.opt", 12, 3));
  }  // destructor writes the closing bracket
  const JsonValue doc = parse_json(os.str());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->items.size(), timebase_metadata().size() + 2);
  for (const JsonValue& e : events->items) {
    EXPECT_EQ(validate_event(e), std::nullopt);
  }
  const JsonValue& last = events->items.back();
  EXPECT_EQ(last.find("name")->str, "compile.opt");
  EXPECT_EQ(last.find("dur")->as_int(), 3);
}

TEST(ObsSink, MemorySinkSnapshots) {
  MemorySink sink;
  sink.write(make_span("a", 0, 1));
  const std::vector<Event> snap = sink.events();
  sink.write(make_span("b", 1, 1));
  EXPECT_EQ(snap.size(), 1u);
  EXPECT_EQ(sink.size(), 2u);
}

// --- schema validator ---------------------------------------------------

JsonValue event_json(const std::string& text) { return parse_json(text); }

TEST(ObsSchema, AcceptsEveryEmittedShape) {
  EXPECT_EQ(validate_event(event_json(
                R"({"name":"x","cat":"vm","ph":"i","ts":0,"pid":1,"tid":0})")),
            std::nullopt);
  EXPECT_EQ(validate_event(event_json(
                R"({"name":"x","cat":"compile","ph":"X","ts":1,"dur":2,"pid":1,"tid":0,)"
                R"("args":{"method":"main","n":3}})")),
            std::nullopt);
}

TEST(ObsSchema, RejectsMalformedRecords) {
  // Not an object.
  EXPECT_NE(validate_event(event_json("[1,2]")), std::nullopt);
  // Empty name.
  EXPECT_NE(validate_event(event_json(
                R"({"name":"","cat":"vm","ph":"i","ts":0,"pid":1,"tid":0})")),
            std::nullopt);
  // Unknown category (non-metadata).
  EXPECT_NE(validate_event(event_json(
                R"({"name":"x","cat":"nope","ph":"i","ts":0,"pid":1,"tid":0})")),
            std::nullopt);
  // Unknown phase.
  EXPECT_NE(validate_event(event_json(
                R"({"name":"x","cat":"vm","ph":"B","ts":0,"pid":1,"tid":0})")),
            std::nullopt);
  // pid outside the two timebases.
  EXPECT_NE(validate_event(event_json(
                R"({"name":"x","cat":"vm","ph":"i","ts":0,"pid":3,"tid":0})")),
            std::nullopt);
  // Complete span without dur.
  EXPECT_NE(validate_event(event_json(
                R"({"name":"x","cat":"vm","ph":"X","ts":0,"pid":1,"tid":0})")),
            std::nullopt);
  // dur on a non-span.
  EXPECT_NE(validate_event(event_json(
                R"({"name":"x","cat":"vm","ph":"i","ts":0,"dur":1,"pid":1,"tid":0})")),
            std::nullopt);
  // args value of a non-scalar type.
  EXPECT_NE(validate_event(event_json(
                R"({"name":"x","cat":"vm","ph":"i","ts":0,"pid":1,"tid":0,"args":{"k":[1]}})")),
            std::nullopt);
}

TEST(ObsSchema, CounterEventsRequireRegisteredFamilies) {
  // Every registered counter family passes...
  for (const char* key : {"vm.installs", "ga.evaluations_saved", "sig.hits", "serve.requests",
                          "resil.outcome.ok", "eval.cache_hits", "rt.fused_bodies",
                          "rt.fused_rule.load_const_cmplt_jz", "opt.pass.fold.runs",
                          "opt.analysis_hits", "opt.memo_hits", "opt.memo_evictions",
                          "eval.bench_runs", "eval.bench_reused", "eval.bench_replayed",
                          "eval.replay_us", "eval.replay_trie_bytes", "sig.restored",
                          "svc.hits"}) {
    EXPECT_EQ(validate_event(event_json(std::string(R"({"name":"c","cat":"vm","ph":"C",)") +
                                        R"("ts":0,"pid":2,"tid":0,"args":{")" + key +
                                        R"(":1}})")),
              std::nullopt)
        << key;
  }
  // ...an unregistered family is rejected on counter events...
  for (const char* key : {"typo.x", "opt.memo", "opt.compiles"}) {
    EXPECT_NE(validate_event(event_json(std::string(R"({"name":"c","cat":"vm","ph":"C",)") +
                                        R"("ts":0,"pid":2,"tid":0,"args":{")" + key +
                                        R"(":1}})")),
              std::nullopt)
        << key;
  }
  // ...but the same key is fine as a span/instant annotation.
  EXPECT_EQ(validate_event(event_json(
                R"({"name":"x","cat":"vm","ph":"i","ts":0,"pid":1,"tid":0,"args":{"typo.x":1}})")),
            std::nullopt);
}

}  // namespace
}  // namespace ith::obs
