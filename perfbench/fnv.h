// FNV-1a, the benchmark's one hash: schedule digests, per-workload seed
// streams and result digests.

#ifndef PERFBENCH_FNV_H_
#define PERFBENCH_FNV_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace perfbench {

class Fnv {
 public:
  static constexpr uint64_t kBasis = 1469598103934665603ULL;

  explicit Fnv(uint64_t basis = kBasis) : h_(basis) {}

  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  /// Length-prefixed, so ("ab", "c") and ("a", "bc") differ.
  void Str(std::string_view s) {
    Pod(static_cast<uint64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  template <typename T>
  void Pod(T v) {
    Bytes(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FNV_H_
