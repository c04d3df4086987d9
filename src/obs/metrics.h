#ifndef ASSESS_OBS_METRICS_H_
#define ASSESS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace assess {

/// \brief Process-wide metrics: lock-cheap counters and fixed-bucket
/// histograms, plus a registry that renders them in Prometheus text
/// exposition format (served by assessd's kMetrics admin frame). The
/// registry holds only series no component counts itself (kernel dispatch,
/// the MQO batch-size histogram); a component's own counters reach
/// /metrics once, through the ServerStats field table (server/protocol.h).
///
/// Hot-path updates are single relaxed atomic RMWs — no locks, no
/// allocation — so instrumented code can update metrics from scan workers.
/// Reads (exposition, quantiles) take unsynchronized snapshots; a dump taken
/// while writers run may be off by in-flight updates, which is the standard
/// monitoring trade-off.

/// \brief Monotonically increasing counter.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Fixed-bucket histogram with atomic bucket counters.
///
/// `bounds` are the inclusive upper edges of the finite buckets (must be
/// strictly increasing); one implicit +Inf bucket catches the rest. This
/// replaces assessd's sliding-window percentile array: O(1) lock-free
/// Observe, bounded memory forever, and quantiles over the *entire* history
/// rather than the last N samples. Quantile() interpolates linearly within
/// the winning bucket, so its error is bounded by the bucket width.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  /// \brief `count` buckets with bounds first, first*growth, first*growth².
  static std::vector<double> ExponentialBounds(double first, double growth,
                                               int count);

  /// \brief The registry-wide default latency layout: 0.25 ms to ~2 min in
  /// 20 doubling buckets (sub-ms resolution where interactive queries live).
  static std::vector<double> LatencyBoundsMs() {
    return ExponentialBounds(0.25, 2.0, 20);
  }

  void Observe(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;

  /// \brief Estimated q-quantile (q in [0,1]) with linear interpolation
  /// inside the winning bucket; 0 when empty. Values in the +Inf bucket
  /// clamp to the last finite bound.
  double Quantile(double q) const;

  /// \brief Bucket counts including the final +Inf bucket
  /// (size() == bounds().size() + 1).
  std::vector<uint64_t> BucketCounts() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_bits_;  // CAS-updated double
};

/// \brief Process-wide registry. Metrics are created on first use and live
/// for the process lifetime, so callers may cache the returned pointers and
/// update them without further registry involvement.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  /// Returns the metric registered under `name`, creating it on first call.
  /// A name identifies one metric of one kind; asking for an existing name
  /// with a different kind returns nullptr.
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          const std::string& help = "");

  /// \brief Prometheus text exposition: `# HELP`/`# TYPE` plus one sample
  /// line per counter and `_bucket{le=...}`/`_sum`/`_count` series per
  /// histogram. Metrics are emitted in name order (deterministic).
  std::string RenderPrometheus() const;

 private:
  MetricsRegistry() = default;

  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;  // exactly one of the two is set
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> metrics_;  // ordered => deterministic render
};

/// \brief Appends the `# HELP` (skipped when `help` is empty) and `# TYPE`
/// lines that open one metric family in Prometheus text exposition.
void AppendMetricHeader(std::string* out, std::string_view name,
                        std::string_view help, std::string_view type);

/// \brief Appends one histogram in Prometheus exposition format under
/// `name` (exposed so assessd can render its per-server latency histogram
/// alongside the process registry).
void AppendHistogramExposition(std::string* out, const std::string& name,
                               const std::string& help, const Histogram& hist);

}  // namespace assess

#endif  // ASSESS_OBS_METRICS_H_
