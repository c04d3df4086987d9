#ifndef ASSESS_COMMON_WIRE_CODEC_H_
#define ASSESS_COMMON_WIRE_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace assess {

/// \brief Encoding primitives shared by the assessd payload codecs (results,
/// statuses, server stats): LEB128 varints, little-endian fixed64 and
/// doubles, and length-prefixed strings.

inline void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

inline void PutFixed64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void PutDouble(std::string* out, double v) {
  PutFixed64(out, std::bit_cast<uint64_t>(v));
}

inline void PutString(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s.data(), s.size());
}

/// Bytes PutVarint(v) appends.
inline size_t VarintLength(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Bytes PutString(s) appends.
inline size_t StringLength(std::string_view s) {
  return VarintLength(s.size()) + s.size();
}

/// Appends `n` doubles, each as PutDouble would. On little-endian hosts the
/// in-memory layout already is the wire layout, so it is one block copy.
inline void PutDoubles(std::string* out, const double* v, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(v), n * sizeof(double));
  } else {
    for (size_t i = 0; i < n; ++i) PutDouble(out, v[i]);
  }
}

/// \brief Bounds-checked sequential reader over serialized bytes. Every Get
/// returns kInvalidArgument on truncation or malformed input; counts are
/// validated against the remaining byte budget before any allocation, so
/// hostile length prefixes cannot trigger huge reserves.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  Status GetByte(uint8_t* out) {
    if (remaining() < 1) return Truncated("byte");
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status GetVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (remaining() < 1) return Truncated("varint");
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return Status::OK();
      }
    }
    return Status::InvalidArgument("wire: varint longer than 10 bytes");
  }

  /// A varint that counts elements each at least `unit_bytes` wide; anything
  /// that could not fit in the remaining bytes is rejected up front.
  Status GetCount(size_t unit_bytes, uint64_t* out) {
    ASSESS_RETURN_NOT_OK(GetVarint(out));
    if (unit_bytes == 0) unit_bytes = 1;
    if (*out > remaining() / unit_bytes) {
      return Status::InvalidArgument("wire: count exceeds payload size");
    }
    return Status::OK();
  }

  Status GetDouble(double* out) {
    if (remaining() < 8) return Truncated("double");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = std::bit_cast<double>(v);
    return Status::OK();
  }

  /// The next `len` bytes as a view into the input (no copy).
  Status GetView(uint64_t len, std::string_view* out) {
    if (len > remaining()) return Truncated("string");
    *out = data_.substr(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return Status::OK();
  }

  /// `n` doubles as GetDouble would read them; the inverse of PutDoubles.
  Status GetDoubles(double* out, size_t n) {
    if (n > remaining() / 8) return Truncated("double");
    if constexpr (std::endian::native == std::endian::little) {
      if (n > 0) std::memcpy(out, data_.data() + pos_, n * 8);
      pos_ += n * 8;
    } else {
      for (size_t i = 0; i < n; ++i) ASSESS_RETURN_NOT_OK(GetDouble(&out[i]));
    }
    return Status::OK();
  }

  /// A length-prefixed string as a view into the input (no copy).
  Status GetStringView(std::string_view* out) {
    uint64_t len = 0;
    ASSESS_RETURN_NOT_OK(GetVarint(&len));
    return GetView(len, out);
  }

  Status GetString(std::string* out) {
    std::string_view view;
    ASSESS_RETURN_NOT_OK(GetStringView(&view));
    out->assign(view);
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::InvalidArgument(std::string("wire: truncated ") + what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace assess

#endif  // ASSESS_COMMON_WIRE_CODEC_H_
