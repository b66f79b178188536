// obs::Context: the handle every instrumented layer holds.
//
// Ownership rule (uniform across VmConfig, EvalConfig, GaConfig and
// PassManager — all of which take an `obs::Context* obs`): the
// pointer is NON-OWNING and may be null. Null (the default) means
// observability is off, and every emit site reduces to a single predictable
// null-pointer branch — the zero-cost path the fast interpreter's dispatch
// numbers are guarded against. A non-null context must outlive every object
// configured with it; the context itself does not own its sink.
//
// A Context multiplexes three things:
//   - event emission, filtered by a category mask (`enabled(cat)`),
//   - a registry of named monotonic counters (typed, atomic; exported as
//     Chrome counter events by flush()),
//   - the host-clock epoch, so host-domain timestamps start near zero.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sink.hpp"

namespace ith::obs {

/// Monotonic counter. Stable address for the Context's lifetime, so layers
/// may look it up once and bump it lock-free afterwards.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

class Context {
 public:
  /// `sink` is non-owning and may be null (events dropped, counters still
  /// accumulate). `categories` is an OR of Category bits; events in masked
  /// categories are suppressed at the emit site.
  explicit Context(TraceSink* sink, std::uint32_t categories = kAllCategories);

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// True if events in `c` reach the sink. Emit sites guard on this so the
  /// argument-building work is skipped entirely when masked.
  bool enabled(Category c) const {
    return sink_ != nullptr && (mask_ & static_cast<std::uint32_t>(c)) != 0;
  }

  /// Stamps the calling thread's tid and forwards to the sink (no-op when
  /// the event's category is masked).
  void emit(Event e);

  /// Convenience emitters.
  void instant(Category cat, const char* name, Domain domain, std::uint64_t ts,
               std::vector<Arg> args = {});
  void complete(Category cat, const char* name, Domain domain, std::uint64_t ts,
                std::uint64_t dur, std::vector<Arg> args = {});

  /// Microseconds of host wall clock since this context was created.
  std::uint64_t host_now_us() const;

  /// Finds or creates the named counter. Thread-safe; the returned
  /// reference stays valid for the context's lifetime.
  Counter& counter(const std::string& name);

  /// Snapshot of all counters (name, value), sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;

  /// Emits one Chrome counter event per registered counter (host domain,
  /// current timestamp) and flushes the sink.
  void flush();

  TraceSink* sink() const { return sink_; }
  std::uint32_t categories() const { return mask_; }

 private:
  TraceSink* sink_;
  std::uint32_t mask_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

/// RAII span timer for the host domain: records the start time at
/// construction and emits a complete event at destruction. Args may be
/// attached at construction or appended as results become known.
class ScopedSpan {
 public:
  /// `ctx` may be null or have the category masked — the span then costs
  /// two branches and no clock reads.
  ScopedSpan(Context* ctx, Category cat, const char* name, std::vector<Arg> args = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Appends an arg to the event emitted at destruction.
  template <typename T>
  void arg(std::string key, T value) {
    if (live_) args_.emplace_back(std::move(key), value);
  }

 private:
  Context* ctx_;
  Category cat_;
  const char* name_;
  std::uint64_t start_us_ = 0;
  bool live_;
  std::vector<Arg> args_;
};

}  // namespace ith::obs
