#ifndef ASSESS_OBS_TRACE_H_
#define ASSESS_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace assess {

/// \brief Span-tree tracing: the per-query observability layer.
///
/// A TraceContext is one query's trace: a tree of timed spans, each with a
/// name, wall time, the thread that recorded it and typed attributes (rows
/// scanned, morsels skipped, cache outcome, plan kind, bytes on wire). The
/// tree serializes as JSON, as Chrome `trace_event` format (load the output
/// in chrome://tracing or Perfetto), and as an indented text tree (the
/// EXPLAIN ANALYZE rendering).
///
/// Instrumentation sites do not thread the context explicitly. A caller
/// installs a trace on its thread with TraceContext::Scope; every `Span`
/// opened underneath attaches to the thread-local current span:
///
///   TraceContext trace;
///   {
///     TraceContext::Scope scope(&trace);
///     auto result = session.Query(statement);   // spans land in `trace`
///   }
///   std::cout << trace.ToTreeString();
///
/// Crossing threads is explicit: capture TraceContext::CurrentBinding() on
/// the submitting thread and install it on the worker with BindScope (the
/// TaskPool does this per job), so pool-side spans parent correctly under
/// the caller's span. Span recording is mutex-protected inside the context;
/// a trace may be appended to from many threads at once.
///
/// Cost model: with no trace installed, a Span is one thread-local load and
/// a branch. With the CMake option ASSESS_TRACING=OFF every Span/Scope site
/// compiles out entirely (the classes stay so call sites build unchanged),
/// mirroring the failpoint design. The runtime knob is sampling: components
/// that auto-create traces (the assessd slow-query log) gate creation
/// through a deterministic TraceSampler.

/// \brief True when tracing sites are compiled in (ASSESS_TRACING=ON).
#ifdef ASSESS_TRACING_ENABLED
inline constexpr bool kTracingCompiledIn = true;
#else
inline constexpr bool kTracingCompiledIn = false;
#endif

/// \brief Appends `s` to `out` as the body of a JSON string: quotes,
/// backslashes and control characters escaped. Every JSON surface (span
/// trees, /traces, /workload) escapes through this one function.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// \brief One typed span attribute.
struct TraceAttr {
  enum class Kind { kInt, kDouble, kString };
  std::string key;
  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  double double_value = 0.0;
  std::string string_value;
};

/// \brief One recorded span. `duration_ns` is -1 while the span is open.
struct SpanNode {
  int32_t id = 0;
  int32_t parent = -1;
  std::string name;
  int32_t thread = 0;    ///< small per-trace thread index, 0 = first seen
  int64_t start_ns = 0;  ///< since the trace epoch
  int64_t duration_ns = -1;
  std::vector<TraceAttr> attrs;
};

class TraceContext;

namespace obs_internal {
/// Thread-local cursor: the trace (if any) installed on this thread and the
/// innermost open span. Reading it is the whole cost of an untraced Span.
struct ThreadTraceState {
  TraceContext* ctx = nullptr;
  int32_t span = -1;
};
inline thread_local ThreadTraceState g_trace_state;
}  // namespace obs_internal

/// \brief One query's span tree. Thread-safe for concurrent span recording;
/// create one per traced query and keep it alive until every thread that
/// might record into it has finished (the TaskPool guarantees this for scan
/// jobs: RunMorsels does not return while a worker is still draining).
class TraceContext {
 public:
  using SpanId = int32_t;
  static constexpr SpanId kNoSpan = -1;

  TraceContext();

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// \brief Opens a span. `parent` may be kNoSpan for a root.
  SpanId StartSpan(std::string_view name, SpanId parent);

  /// \brief Closes a span, fixing its duration.
  void EndSpan(SpanId id);

  void AddInt(SpanId id, std::string_view key, int64_t value);
  void AddDouble(SpanId id, std::string_view key, double value);
  void AddString(SpanId id, std::string_view key, std::string_view value);

  /// \brief Number of spans recorded so far.
  size_t span_count() const;

  /// \brief Point-in-time copy of all recorded spans.
  std::vector<SpanNode> Snapshot() const;

  /// \brief Sum of the durations of all *closed* spans named `name`,
  /// in seconds, restricted to the subtree under `root` when given.
  double SpanSeconds(std::string_view name, SpanId root = kNoSpan) const;

  /// \brief JSON rendering: {"trace":{"spans":[...]}}.
  std::string ToJson() const;

  /// \brief Chrome trace_event rendering ({"traceEvents":[...]}); open the
  /// output in chrome://tracing or Perfetto.
  std::string ToChromeTrace() const;

  /// \brief Indented text tree with millisecond durations and attributes
  /// (the EXPLAIN ANALYZE body).
  std::string ToTreeString() const;

  /// \brief Test hook: replaces the monotonic clock with `now_ns` so span
  /// times — and therefore the serialized forms — are deterministic.
  void SetClockForTest(std::function<int64_t()> now_ns);

  // -- thread-local plumbing ------------------------------------------------

  /// \brief A (context, parent span) pair capturable on one thread and
  /// installable on another, so cross-thread work parents correctly.
  struct Binding {
    TraceContext* ctx = nullptr;
    SpanId parent = kNoSpan;
  };

  /// \brief The trace installed on this thread, or nullptr.
  static TraceContext* Current() {
#ifdef ASSESS_TRACING_ENABLED
    return obs_internal::g_trace_state.ctx;
#else
    return nullptr;
#endif
  }

  /// \brief The innermost open span on this thread (kNoSpan when none).
  static SpanId CurrentSpan() {
#ifdef ASSESS_TRACING_ENABLED
    return obs_internal::g_trace_state.span;
#else
    return kNoSpan;
#endif
  }

  /// \brief Captures this thread's trace position for another thread.
  static Binding CurrentBinding() {
#ifdef ASSESS_TRACING_ENABLED
    return Binding{obs_internal::g_trace_state.ctx,
                   obs_internal::g_trace_state.span};
#else
    return Binding{};
#endif
  }

  /// \brief RAII: installs `ctx` as this thread's trace (spans root at the
  /// top level); restores the previous state on destruction.
  class Scope {
   public:
    explicit Scope(TraceContext* ctx) {
#ifdef ASSESS_TRACING_ENABLED
      prev_ = obs_internal::g_trace_state;
      obs_internal::g_trace_state = {ctx, kNoSpan};
#else
      (void)ctx;
#endif
    }
    ~Scope() {
#ifdef ASSESS_TRACING_ENABLED
      obs_internal::g_trace_state = prev_;
#endif
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
#ifdef ASSESS_TRACING_ENABLED
    obs_internal::ThreadTraceState prev_;
#endif
  };

  /// \brief RAII: installs a captured Binding on this thread (pool workers).
  /// A default-constructed binding is a no-op.
  class BindScope {
   public:
    explicit BindScope(const Binding& binding) {
#ifdef ASSESS_TRACING_ENABLED
      prev_ = obs_internal::g_trace_state;
      obs_internal::g_trace_state = {binding.ctx, binding.parent};
#else
      (void)binding;
#endif
    }
    ~BindScope() {
#ifdef ASSESS_TRACING_ENABLED
      obs_internal::g_trace_state = prev_;
#endif
    }
    BindScope(const BindScope&) = delete;
    BindScope& operator=(const BindScope&) = delete;

   private:
#ifdef ASSESS_TRACING_ENABLED
    obs_internal::ThreadTraceState prev_;
#endif
  };

 private:
  int64_t Now() const;
  int32_t ThreadIndexLocked();

  mutable std::mutex mutex_;
  std::vector<SpanNode> nodes_;
  std::unordered_map<std::thread::id, int32_t> thread_index_;
  std::function<int64_t()> now_fn_;  ///< test clock; empty = steady_clock
  std::chrono::steady_clock::time_point epoch_;
};

/// \brief RAII span scope. Records into the thread's current trace (no-op
/// when none is installed) and makes itself the current span for its
/// lifetime, so nested Spans become children automatically.
class Span {
 public:
  explicit Span(const char* name) {
#ifdef ASSESS_TRACING_ENABLED
    auto& state = obs_internal::g_trace_state;
    if (state.ctx == nullptr) return;
    ctx_ = state.ctx;
    prev_ = state.span;
    id_ = ctx_->StartSpan(name, prev_);
    state.span = id_;
#else
    (void)name;
#endif
  }

  ~Span() {
#ifdef ASSESS_TRACING_ENABLED
    if (ctx_ == nullptr) return;
    ctx_->EndSpan(id_);
    obs_internal::g_trace_state.span = prev_;
#endif
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void AddInt(const char* key, int64_t value) {
#ifdef ASSESS_TRACING_ENABLED
    if (ctx_ != nullptr) ctx_->AddInt(id_, key, value);
#else
    (void)key;
    (void)value;
#endif
  }
  void AddDouble(const char* key, double value) {
#ifdef ASSESS_TRACING_ENABLED
    if (ctx_ != nullptr) ctx_->AddDouble(id_, key, value);
#else
    (void)key;
    (void)value;
#endif
  }
  void AddString(const char* key, std::string_view value) {
#ifdef ASSESS_TRACING_ENABLED
    if (ctx_ != nullptr) ctx_->AddString(id_, key, value);
#else
    (void)key;
    (void)value;
#endif
  }

  bool active() const {
#ifdef ASSESS_TRACING_ENABLED
    return ctx_ != nullptr;
#else
    return false;
#endif
  }
  TraceContext* context() const {
#ifdef ASSESS_TRACING_ENABLED
    return ctx_;
#else
    return nullptr;
#endif
  }
  TraceContext::SpanId id() const {
#ifdef ASSESS_TRACING_ENABLED
    return id_;
#else
    return TraceContext::kNoSpan;
#endif
  }

 private:
#ifdef ASSESS_TRACING_ENABLED
  TraceContext* ctx_ = nullptr;
  TraceContext::SpanId id_ = TraceContext::kNoSpan;
  TraceContext::SpanId prev_ = TraceContext::kNoSpan;
#endif
};

/// \brief Deterministic trace sampler: the runtime cost knob for components
/// that auto-create traces. A fixed seed yields a fixed decision sequence,
/// so sampled workloads are reproducible (and testable) run over run.
class TraceSampler {
 public:
  /// `rate` in [0, 1]: 1 samples everything, 0 nothing.
  TraceSampler(double rate, uint64_t seed) : rate_(rate), rng_(seed) {}

  bool Sample() {
    if (rate_ >= 1.0) return true;
    if (rate_ <= 0.0) return false;
    return rng_.NextDouble() < rate_;
  }

 private:
  double rate_;
  Rng rng_;
};

}  // namespace assess

#endif  // ASSESS_OBS_TRACE_H_
