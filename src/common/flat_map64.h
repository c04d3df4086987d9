#ifndef ASSESS_COMMON_FLAT_MAP64_H_
#define ASSESS_COMMON_FLAT_MAP64_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace assess {

/// \brief Open-addressing hash map from non-zero uint64 keys to int32 values,
/// for hot loops that map ids to dense indexes: the aggregation inner loop
/// of StarQueryEngine (key = mixed-radix coordinate encoding, value = group
/// index), the wire encoder's per-level dictionary (key = member id + 1,
/// value = first-appearance index) and CoordinateIndex, the algebra's join
/// and pivot index (key = coordinate hash, value = bucket id).
///
/// Callers offset their keys so they are always >= 1, so key 0 serves as the
/// empty-slot sentinel and slots need no separate occupancy bits. Linear
/// probing with power-of-two capacity.
class FlatMap64 {
 public:
  explicit FlatMap64(int64_t expected = 64) { Rehash(CapacityFor(expected)); }

  /// \brief Returns the value for `key`, inserting `next_value` when absent.
  /// `inserted` reports which happened.
  int32_t FindOrInsert(uint64_t key, int32_t next_value, bool* inserted) {
    if ((size_ + 1) * 10 >= capacity_ * 7) Rehash(capacity_ * 2);
    uint64_t mask = static_cast<uint64_t>(capacity_) - 1;
    uint64_t slot = Mix(key) & mask;
    while (true) {
      uint64_t k = keys_[slot];
      if (k == key) {
        *inserted = false;
        return values_[slot];
      }
      if (k == 0) {
        keys_[slot] = key;
        values_[slot] = next_value;
        ++size_;
        *inserted = true;
        return next_value;
      }
      slot = (slot + 1) & mask;
    }
  }

  /// \brief Returns the value for `key`, or -1 when absent.
  int32_t Find(uint64_t key) const {
    uint64_t mask = static_cast<uint64_t>(capacity_) - 1;
    uint64_t slot = Mix(key) & mask;
    while (true) {
      uint64_t k = keys_[slot];
      if (k == key) return values_[slot];
      if (k == 0) return -1;
      slot = (slot + 1) & mask;
    }
  }

  int64_t size() const { return size_; }

 private:
  static uint64_t Mix(uint64_t k) {
    k ^= k >> 33;
    k *= 0xFF51AFD7ED558CCDULL;
    k ^= k >> 33;
    k *= 0xC4CEB9FE1A85EC53ULL;
    k ^= k >> 33;
    return k;
  }

  static int64_t CapacityFor(int64_t expected) {
    int64_t cap = 64;
    while (cap * 7 < expected * 10) cap *= 2;
    return cap;
  }

  void Rehash(int64_t new_capacity) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<int32_t> old_values = std::move(values_);
    capacity_ = new_capacity;
    keys_.assign(capacity_, 0);
    values_.assign(capacity_, 0);
    uint64_t mask = static_cast<uint64_t>(capacity_) - 1;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      uint64_t key = old_keys[i];
      if (key == 0) continue;
      uint64_t slot = Mix(key) & mask;
      while (keys_[slot] != 0) slot = (slot + 1) & mask;
      keys_[slot] = key;
      values_[slot] = old_values[i];
    }
  }

  int64_t capacity_ = 0;
  int64_t size_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<int32_t> values_;
};

}  // namespace assess

#endif  // ASSESS_COMMON_FLAT_MAP64_H_
