//===- analysis/Interval.h - Integer interval abstract domain ---*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An interval of rationals with exact bounds and explicit +-infinity: the
/// per-argument bound the relational domains project out of their values
/// (`Octagon::boundOf`, `PackedOctagon::boundOf`,
/// `TemplatePolyhedron::boundOf`), the interval arithmetic the octagon
/// transfer uses for non-octagonal atoms, and the shape of the verified
/// bounds handed to the learner (`ArgBounds`). `empty` is bottom, `top` is
/// (-inf, +inf), and `meet` is the intersection.
///
//===----------------------------------------------------------------------===//

#ifndef LA_ANALYSIS_INTERVAL_H
#define LA_ANALYSIS_INTERVAL_H

#include "support/Rational.h"

namespace la::analysis {

/// Largest integer <= V.
Rational floorOf(const Rational &V);
/// Smallest integer >= V.
Rational ceilOf(const Rational &V);

/// A (possibly unbounded, possibly empty) interval of rationals.
class Interval {
public:
  /// The full line (-inf, +inf).
  Interval() = default;

  static Interval top() { return Interval(); }
  static Interval empty();
  static Interval constant(Rational V);
  static Interval range(Rational Lo, Rational Hi);
  static Interval atLeast(Rational Lo);
  static Interval atMost(Rational Hi);

  bool isEmpty() const { return Empty; }
  bool isTop() const { return !Empty && !HasLo && !HasHi; }
  bool hasLo() const { return !Empty && HasLo; }
  bool hasHi() const { return !Empty && HasHi; }
  /// Finite bounds; only meaningful when hasLo()/hasHi().
  const Rational &lo() const { return Lo; }
  const Rational &hi() const { return Hi; }

  bool contains(const Rational &V) const;

  /// Lattice intersection.
  Interval meet(const Interval &O) const;

  /// Abstract arithmetic (sound over-approximations).
  Interval operator+(const Interval &O) const;
  Interval scaled(const Rational &Factor) const;

  /// Rounds the bounds to the nearest enclosed integers (sound when the
  /// concrete values are known to be integral, as all CHC variables are).
  /// May produce the empty interval (e.g. [1/3, 2/3]).
  Interval tightenIntegral() const;

  bool operator==(const Interval &O) const;

private:
  bool Empty = false;
  bool HasLo = false;
  bool HasHi = false;
  Rational Lo;
  Rational Hi;

  /// Canonicalises: a crossed pair of bounds collapses to the empty value.
  void normalize();
};

} // namespace la::analysis

#endif // LA_ANALYSIS_INTERVAL_H
