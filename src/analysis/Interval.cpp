//===- analysis/Interval.cpp - Integer interval abstract domain -----------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Interval.h"

using namespace la;
using namespace la::analysis;

Rational analysis::floorOf(const Rational &V) {
  // BigInt::divMod truncates toward zero with the remainder carrying the
  // dividend's sign; adjust downward for negative non-integral values.
  BigInt::DivModResult D = V.numerator().divMod(V.denominator());
  if (V.isNegative() && !D.Remainder.isZero())
    return Rational(D.Quotient - BigInt(1));
  return Rational(D.Quotient);
}

Rational analysis::ceilOf(const Rational &V) { return -floorOf(-V); }

Interval Interval::empty() {
  Interval I;
  I.Empty = true;
  return I;
}

Interval Interval::constant(Rational V) {
  Interval I;
  I.HasLo = I.HasHi = true;
  I.Lo = V;
  I.Hi = std::move(V);
  return I;
}

Interval Interval::range(Rational Lo, Rational Hi) {
  Interval I;
  I.HasLo = I.HasHi = true;
  I.Lo = std::move(Lo);
  I.Hi = std::move(Hi);
  I.normalize();
  return I;
}

Interval Interval::atLeast(Rational Lo) {
  Interval I;
  I.HasLo = true;
  I.Lo = std::move(Lo);
  return I;
}

Interval Interval::atMost(Rational Hi) {
  Interval I;
  I.HasHi = true;
  I.Hi = std::move(Hi);
  return I;
}

void Interval::normalize() {
  if (!Empty && HasLo && HasHi && Lo > Hi) {
    *this = Interval();
    Empty = true;
  }
}

bool Interval::contains(const Rational &V) const {
  if (Empty)
    return false;
  if (HasLo && V < Lo)
    return false;
  if (HasHi && V > Hi)
    return false;
  return true;
}

Interval Interval::meet(const Interval &O) const {
  if (Empty || O.Empty)
    return empty();
  Interval R;
  R.HasLo = HasLo || O.HasLo;
  if (R.HasLo)
    R.Lo = !HasLo ? O.Lo : !O.HasLo ? Lo : (Lo >= O.Lo ? Lo : O.Lo);
  R.HasHi = HasHi || O.HasHi;
  if (R.HasHi)
    R.Hi = !HasHi ? O.Hi : !O.HasHi ? Hi : (Hi <= O.Hi ? Hi : O.Hi);
  R.normalize();
  return R;
}

Interval Interval::operator+(const Interval &O) const {
  if (Empty || O.Empty)
    return empty();
  Interval R;
  R.HasLo = HasLo && O.HasLo;
  if (R.HasLo)
    R.Lo = Lo + O.Lo;
  R.HasHi = HasHi && O.HasHi;
  if (R.HasHi)
    R.Hi = Hi + O.Hi;
  return R;
}

Interval Interval::scaled(const Rational &Factor) const {
  if (Empty)
    return empty();
  if (Factor.isZero())
    return constant(Rational(0));
  Interval R;
  if (Factor.signum() > 0) {
    R.HasLo = HasLo;
    R.HasHi = HasHi;
    if (HasLo)
      R.Lo = Lo * Factor;
    if (HasHi)
      R.Hi = Hi * Factor;
  } else {
    R.HasLo = HasHi;
    R.HasHi = HasLo;
    if (HasHi)
      R.Lo = Hi * Factor;
    if (HasLo)
      R.Hi = Lo * Factor;
  }
  return R;
}

Interval Interval::tightenIntegral() const {
  if (Empty)
    return empty();
  Interval R = *this;
  if (R.HasLo)
    R.Lo = ceilOf(R.Lo);
  if (R.HasHi)
    R.Hi = floorOf(R.Hi);
  R.normalize();
  return R;
}

bool Interval::operator==(const Interval &O) const {
  if (Empty != O.Empty)
    return false;
  if (Empty)
    return true;
  if (HasLo != O.HasLo || HasHi != O.HasHi)
    return false;
  if (HasLo && Lo != O.Lo)
    return false;
  if (HasHi && Hi != O.Hi)
    return false;
  return true;
}
