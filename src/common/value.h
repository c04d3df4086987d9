#ifndef ASSESS_COMMON_VALUE_H_
#define ASSESS_COMMON_VALUE_H_

#include <string>
#include <variant>

namespace assess {

/// \brief A scalar constant appearing in statements: either a number (for
/// constant benchmarks, thresholds) or a string (level members).
class Value {
 public:
  Value() : repr_(0.0) {}
  explicit Value(double number) : repr_(number) {}
  explicit Value(std::string text) : repr_(std::move(text)) {}

  bool is_number() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return !is_number(); }

  double number() const { return std::get<double>(repr_); }
  const std::string& text() const { return std::get<std::string>(repr_); }

  /// \brief Renders as the assess surface syntax would: numbers bare,
  /// strings single-quoted.
  std::string ToString() const;

  // Compares the alternative first and then only the matching payload:
  // the variant's own operator== trips GCC 12's -Wmaybe-uninitialized
  // under -fsanitize=address,undefined.
  friend bool operator==(const Value& a, const Value& b) {
    if (a.repr_.index() != b.repr_.index()) return false;
    return a.is_number() ? a.number() == b.number() : a.text() == b.text();
  }

 private:
  std::variant<double, std::string> repr_;
};

}  // namespace assess

#endif  // ASSESS_COMMON_VALUE_H_
