#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace assess {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return std::string(buf);
}

std::string FormatUint(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return std::string(buf);
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_bits_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::ExponentialBounds(double first, double growth,
                                                 int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double edge = first;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= growth;
  }
  return bounds;
}

void Histogram::Observe(double value) {
  // First bucket whose inclusive upper edge admits the value (lower_bound:
  // a value equal to an edge lands in that edge's bucket); +Inf otherwise.
  size_t bucket = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
                  bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(expected, expected + value,
                                          std::memory_order_relaxed)) {
  }
}

double Histogram::Sum() const {
  return sum_bits_.load(std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::Quantile(double q) const {
  std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the target sample, 1-based; ceil keeps p100 inside the data.
  const double rank = std::max(1.0, q * static_cast<double>(total));
  double cum = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cum + static_cast<double>(counts[i]);
    if (rank <= next) {
      if (i == bounds_.size()) {
        return bounds_.empty() ? 0.0 : bounds_.back();  // +Inf bucket clamps
      }
      const double lo = (i == 0) ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double frac = (rank - cum) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.help = help;
    it->second.counter = std::make_unique<Counter>();
  }
  return it->second.counter.get();  // null when `name` is a histogram
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.help = help;
    it->second.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return it->second.histogram.get();  // null when `name` is a counter
}

void AppendMetricHeader(std::string* out, std::string_view name,
                        std::string_view help, std::string_view type) {
  if (!help.empty()) {
    out->append("# HELP ").append(name).append(" ").append(help).append("\n");
  }
  out->append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

void AppendHistogramExposition(std::string* out, const std::string& name,
                               const std::string& help,
                               const Histogram& hist) {
  AppendMetricHeader(out, name, help, "histogram");
  const std::vector<uint64_t> counts = hist.BucketCounts();
  const std::vector<double>& bounds = hist.bounds();
  uint64_t cum = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    cum += counts[i];
    out->append(name)
        .append("_bucket{le=\"")
        .append(FormatDouble(bounds[i]))
        .append("\"} ")
        .append(FormatUint(cum))
        .append("\n");
  }
  cum += counts[bounds.size()];
  out->append(name).append("_bucket{le=\"+Inf\"} ").append(FormatUint(cum));
  out->append("\n");
  out->append(name).append("_sum ").append(FormatDouble(hist.Sum()));
  out->append("\n");
  out->append(name).append("_count ").append(FormatUint(hist.Count()));
  out->append("\n");
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, entry] : metrics_) {
    if (entry.histogram) {
      AppendHistogramExposition(&out, name, entry.help, *entry.histogram);
      continue;
    }
    AppendMetricHeader(&out, name, entry.help, "counter");
    out.append(name).append(" ").append(FormatUint(entry.counter->Value()));
    out.append("\n");
  }
  return out;
}

}  // namespace assess
