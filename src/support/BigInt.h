//===- support/BigInt.h - Arbitrary-precision integers ----------*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arbitrary-precision integer used by the exact arithmetic layer
/// (rationals, simplex pivots, octagon DBMs, Farkas certificates).
///
/// Almost every value that occurs in CHC solving fits in a machine word, so
/// a BigInt has two forms:
///
/// - **Inline**: a value in [INT64_MIN, INT64_MAX] is held in an int64_t
///   with no heap memory. `+ - *` use the `__builtin_*_overflow` checks,
///   division and gcd use native `/ %` and `std::gcd`.
/// - **Limb**: a value outside that range is a little-endian vector of
///   64-bit magnitude limbs plus its sign. This path keeps the schoolbook
///   multiplication and shift-subtract division (short division when the
///   divisor is one limb).
///
/// The form is canonical: an inline result that overflows is promoted to
/// limbs, and a limb result that fits in int64 is demoted, so every value
/// has exactly one representation and `==` can compare fields.
///
//===----------------------------------------------------------------------===//

#ifndef LA_SUPPORT_BIGINT_H
#define LA_SUPPORT_BIGINT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace la {

/// Arbitrary-precision signed integer.
///
/// Representation invariant: when \c Limbs is empty the value is \c Small
/// (the inline form). Otherwise the value does not fit in int64_t, \c Limbs
/// holds its magnitude little-endian with no leading zero limb, and \c Small
/// is its sign, +1 or -1.
class BigInt {
public:
  /// Constructs zero.
  BigInt() = default;

  /// Constructs from a machine integer.
  BigInt(int64_t Value) : Small(Value) {}

  /// Parses a decimal string with optional leading '-'.
  ///
  /// \returns std::nullopt if \p Text is empty or contains a non-digit.
  static std::optional<BigInt> fromString(const std::string &Text);

  /// \returns -1, 0 or +1.
  int signum() const { return (Small > 0) - (Small < 0); }

  bool isZero() const { return Small == 0; }
  bool isOne() const { return Small == 1 && Limbs.empty(); }
  bool isNegative() const { return Small < 0; }

  BigInt operator-() const {
    if (Limbs.empty() && Small != INT64_MIN)
      return BigInt(-Small);
    return negateSlow();
  }
  BigInt abs() const { return Small < 0 ? -*this : *this; }

  BigInt operator+(const BigInt &RHS) const {
    int64_t R;
    if (bothInline(RHS) && !__builtin_add_overflow(Small, RHS.Small, &R))
      return BigInt(R);
    return addSlow(*this, RHS, /*NegateRHS=*/false);
  }
  BigInt operator-(const BigInt &RHS) const {
    int64_t R;
    if (bothInline(RHS) && !__builtin_sub_overflow(Small, RHS.Small, &R))
      return BigInt(R);
    return addSlow(*this, RHS, /*NegateRHS=*/true);
  }
  BigInt operator*(const BigInt &RHS) const {
    int64_t R;
    if (bothInline(RHS) && !__builtin_mul_overflow(Small, RHS.Small, &R))
      return BigInt(R);
    return mulSlow(*this, RHS);
  }

  BigInt &operator+=(const BigInt &RHS) { return *this = *this + RHS; }
  BigInt &operator-=(const BigInt &RHS) { return *this = *this - RHS; }
  BigInt &operator*=(const BigInt &RHS) { return *this = *this * RHS; }

  /// Truncating division (C semantics): the quotient rounds toward zero and
  /// the remainder has the sign of the dividend. Asserts on division by zero.
  struct DivModResult;
  DivModResult divMod(const BigInt &Divisor) const;

  /// Quotient of truncating division.
  BigInt operator/(const BigInt &RHS) const;
  /// Remainder of truncating division.
  BigInt operator%(const BigInt &RHS) const;

  /// Euclidean (non-negative) remainder, used for `mod` feature semantics.
  BigInt euclideanMod(const BigInt &Divisor) const;

  /// Greatest common divisor of the absolute values; gcd(0, 0) == 0.
  static BigInt gcd(const BigInt &A, const BigInt &B);

  /// Canonical forms make equality a field comparison.
  bool operator==(const BigInt &RHS) const {
    return Small == RHS.Small && Limbs == RHS.Limbs;
  }
  bool operator!=(const BigInt &RHS) const { return !(*this == RHS); }
  bool operator<(const BigInt &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const BigInt &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const BigInt &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const BigInt &RHS) const { return compare(RHS) >= 0; }

  /// Three-way comparison: negative, zero or positive.
  int compare(const BigInt &RHS) const {
    if (bothInline(RHS))
      return (Small > RHS.Small) - (Small < RHS.Small);
    return compareSlow(RHS);
  }

  /// \returns the value as int64_t, or std::nullopt when out of range.
  std::optional<int64_t> toInt64() const {
    if (Limbs.empty())
      return Small;
    return std::nullopt;
  }

  /// \returns a double approximation (may overflow to +/-inf).
  double toDouble() const;

  std::string toString() const;

  /// Number of significant bits of the magnitude (0 for zero).
  size_t bitLength() const;

  /// Hash suitable for unordered containers. It is a function of the sign
  /// and the magnitude limbs alone (an inline value hashes as the one-limb
  /// magnitude it would have in limb form), so it does not depend on which
  /// form holds the value.
  size_t hash() const;

private:
  /// Read-only little-endian view of a magnitude, borrowed from \c Limbs or
  /// from a caller-provided one-limb scratch word for an inline value.
  struct MagnitudeRef {
    const uint64_t *Data;
    size_t Size;
  };
  MagnitudeRef magnitude(uint64_t &Scratch) const;

  bool bothInline(const BigInt &RHS) const {
    return Limbs.empty() && RHS.Limbs.empty();
  }

  /// Canonical constructors: demote to the inline form when the value fits.
  static BigInt fromMagnitude(bool Negative, uint64_t Magnitude);
  static BigInt fromMagnitude(bool Negative, std::vector<uint64_t> Magnitude);

  /// The paths taken when an operand is in limb form or an inline result
  /// overflows; inline operands take part as one-limb magnitudes.
  static BigInt addSlow(const BigInt &A, const BigInt &B, bool NegateRHS);
  static BigInt mulSlow(const BigInt &A, const BigInt &B);
  BigInt negateSlow() const;
  int compareSlow(const BigInt &RHS) const;
  DivModResult divModSlow(const BigInt &Divisor) const;

  /// Magnitude comparison helper: -1, 0, +1 over |A| vs |B|.
  static int compareMagnitude(MagnitudeRef A, MagnitudeRef B);
  static std::vector<uint64_t> addMagnitude(MagnitudeRef A, MagnitudeRef B);
  /// Requires |A| >= |B|.
  static std::vector<uint64_t> subMagnitude(MagnitudeRef A, MagnitudeRef B);

  int64_t Small = 0;
  std::vector<uint64_t> Limbs;
};

static_assert(sizeof(BigInt) <= 32, "BigInt must stay within 32 bytes");

struct BigInt::DivModResult {
  BigInt Quotient;
  BigInt Remainder;
};

} // namespace la

#endif // LA_SUPPORT_BIGINT_H
