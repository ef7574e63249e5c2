//===- support/Rational.cpp - Exact rational arithmetic -------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

using namespace la;

Rational::Rational(BigInt Numerator, BigInt Denominator)
    : Num(std::move(Numerator)), Den(std::move(Denominator)) {
  assert(!Den.isZero() && "rational with zero denominator");
  if (Den.isOne())
    return;
  if (Den.isNegative()) {
    Num = -Num;
    Den = -Den;
  }
  if (Num.isZero()) {
    Den = BigInt(1);
    return;
  }
  BigInt G = BigInt::gcd(Num, Den);
  if (!G.isOne()) {
    Num = Num / G;
    Den = Den / G;
  }
}

std::optional<Rational> Rational::fromString(const std::string &Text) {
  size_t Slash = Text.find('/');
  if (Slash == std::string::npos) {
    std::optional<BigInt> N = BigInt::fromString(Text);
    if (!N)
      return std::nullopt;
    return Rational(*N);
  }
  std::optional<BigInt> N = BigInt::fromString(Text.substr(0, Slash));
  std::optional<BigInt> D = BigInt::fromString(Text.substr(Slash + 1));
  if (!N || !D || D->isZero())
    return std::nullopt;
  return Rational(*N, *D);
}

Rational Rational::operator-() const {
  Rational Result = *this;
  Result.Num = -Result.Num;
  return Result;
}

Rational Rational::abs() const {
  Rational Result = *this;
  Result.Num = Result.Num.abs();
  return Result;
}

Rational Rational::inverse() const {
  assert(!isZero() && "inverse of zero");
  return Rational(Den, Num);
}

// The integer paths (both denominators 1) skip the gcd: an integer result
// is already in lowest terms.

Rational Rational::operator+(const Rational &RHS) const {
  if (isInteger() && RHS.isInteger())
    return Rational(Num + RHS.Num);
  return Rational(Num * RHS.Den + RHS.Num * Den, Den * RHS.Den);
}

Rational Rational::operator-(const Rational &RHS) const {
  if (isInteger() && RHS.isInteger())
    return Rational(Num - RHS.Num);
  return Rational(Num * RHS.Den - RHS.Num * Den, Den * RHS.Den);
}

Rational Rational::operator*(const Rational &RHS) const {
  if (isInteger() && RHS.isInteger())
    return Rational(Num * RHS.Num);
  return Rational(Num * RHS.Num, Den * RHS.Den);
}

Rational Rational::operator/(const Rational &RHS) const {
  assert(!RHS.isZero() && "division by zero");
  return Rational(Num * RHS.Den, Den * RHS.Num);
}

int Rational::compare(const Rational &RHS) const {
  if (isInteger() && RHS.isInteger())
    return Num.compare(RHS.Num);
  return (Num * RHS.Den).compare(RHS.Num * Den);
}

BigInt Rational::floor() const {
  BigInt::DivModResult QR = Num.divMod(Den);
  // Truncation rounds toward zero; fix up for negative non-integers.
  if (Num.isNegative() && !QR.Remainder.isZero())
    return QR.Quotient - BigInt(1);
  return QR.Quotient;
}

BigInt Rational::ceil() const {
  BigInt::DivModResult QR = Num.divMod(Den);
  if (!Num.isNegative() && !QR.Remainder.isZero())
    return QR.Quotient + BigInt(1);
  return QR.Quotient;
}

double Rational::toDouble() const { return Num.toDouble() / Den.toDouble(); }

std::string Rational::toString() const {
  if (Den.isOne())
    return Num.toString();
  return Num.toString() + "/" + Den.toString();
}

size_t Rational::hash() const {
  return Num.hash() * 31 + Den.hash();
}
