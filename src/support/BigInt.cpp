//===- support/BigInt.cpp - Arbitrary-precision integers ------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace la;

/// |Value| in the unsigned domain (no UB on INT64_MIN).
static uint64_t magnitudeOf(int64_t Value) {
  return Value < 0 ? ~static_cast<uint64_t>(Value) + 1
                   : static_cast<uint64_t>(Value);
}

static void stripLeadingZeros(std::vector<uint64_t> &Limbs) {
  while (!Limbs.empty() && Limbs.back() == 0)
    Limbs.pop_back();
}

BigInt::MagnitudeRef BigInt::magnitude(uint64_t &Scratch) const {
  if (!Limbs.empty())
    return {Limbs.data(), Limbs.size()};
  Scratch = magnitudeOf(Small);
  return {&Scratch, Small != 0 ? size_t(1) : size_t(0)};
}

BigInt BigInt::fromMagnitude(bool Negative, uint64_t Magnitude) {
  constexpr uint64_t MaxPositive = static_cast<uint64_t>(INT64_MAX);
  BigInt Result;
  if (Magnitude <= MaxPositive) {
    Result.Small = Negative ? -static_cast<int64_t>(Magnitude)
                            : static_cast<int64_t>(Magnitude);
  } else if (Negative && Magnitude == MaxPositive + 1) {
    Result.Small = INT64_MIN;
  } else {
    Result.Small = Negative ? -1 : 1;
    Result.Limbs.push_back(Magnitude);
  }
  return Result;
}

BigInt BigInt::fromMagnitude(bool Negative, std::vector<uint64_t> Magnitude) {
  stripLeadingZeros(Magnitude);
  if (Magnitude.size() <= 1)
    return fromMagnitude(Negative, Magnitude.empty() ? 0 : Magnitude[0]);
  BigInt Result;
  Result.Small = Negative ? -1 : 1;
  Result.Limbs = std::move(Magnitude);
  return Result;
}

std::optional<BigInt> BigInt::fromString(const std::string &Text) {
  size_t Start = 0;
  bool Neg = false;
  if (Start < Text.size() && (Text[Start] == '-' || Text[Start] == '+')) {
    Neg = Text[Start] == '-';
    ++Start;
  }
  if (Start >= Text.size())
    return std::nullopt;
  BigInt Result;
  BigInt Ten(10);
  for (size_t I = Start; I < Text.size(); ++I) {
    if (Text[I] < '0' || Text[I] > '9')
      return std::nullopt;
    Result = Result * Ten + BigInt(Text[I] - '0');
  }
  if (Neg)
    Result = -Result;
  return Result;
}

int BigInt::compareMagnitude(MagnitudeRef A, MagnitudeRef B) {
  if (A.Size != B.Size)
    return A.Size < B.Size ? -1 : 1;
  for (size_t I = A.Size; I-- > 0;) {
    if (A.Data[I] != B.Data[I])
      return A.Data[I] < B.Data[I] ? -1 : 1;
  }
  return 0;
}

std::vector<uint64_t> BigInt::addMagnitude(MagnitudeRef A, MagnitudeRef B) {
  MagnitudeRef Long = A.Size >= B.Size ? A : B;
  MagnitudeRef Short = A.Size >= B.Size ? B : A;
  std::vector<uint64_t> Result;
  Result.reserve(Long.Size + 1);
  unsigned __int128 Carry = 0;
  for (size_t I = 0; I < Long.Size; ++I) {
    unsigned __int128 Sum = Carry + Long.Data[I];
    if (I < Short.Size)
      Sum += Short.Data[I];
    Result.push_back(static_cast<uint64_t>(Sum));
    Carry = Sum >> 64;
  }
  if (Carry != 0)
    Result.push_back(static_cast<uint64_t>(Carry));
  return Result;
}

/// A -= B in place, where |A| >= |B|; strips leading zeros.
static void subtractInPlace(std::vector<uint64_t> &A, const uint64_t *B,
                            size_t BSize) {
  uint64_t Borrow = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    if (I >= BSize && Borrow == 0)
      break;
    uint64_t Sub = I < BSize ? B[I] : 0;
    uint64_t Value = A[I] - Sub - Borrow;
    // Borrow occurred iff A[I] < Sub + Borrow in the unsigned domain.
    Borrow = (A[I] < Sub || (A[I] == Sub && Borrow)) ? 1 : 0;
    A[I] = Value;
  }
  assert(Borrow == 0 && "subtraction would underflow");
  stripLeadingZeros(A);
}

std::vector<uint64_t> BigInt::subMagnitude(MagnitudeRef A, MagnitudeRef B) {
  assert(compareMagnitude(A, B) >= 0 && "subtraction would underflow");
  std::vector<uint64_t> Result(A.Data, A.Data + A.Size);
  subtractInPlace(Result, B.Data, B.Size);
  return Result;
}

BigInt BigInt::negateSlow() const {
  if (Limbs.empty()) // only INT64_MIN, whose negation needs a limb
    return fromMagnitude(false, magnitudeOf(Small));
  return fromMagnitude(Small > 0, Limbs);
}

BigInt BigInt::addSlow(const BigInt &A, const BigInt &B, bool NegateRHS) {
  bool NegA = A.Small < 0;
  bool NegB = (B.Small < 0) != NegateRHS;
  uint64_t ScratchA, ScratchB;
  MagnitudeRef MA = A.magnitude(ScratchA), MB = B.magnitude(ScratchB);
  if (NegA == NegB)
    return fromMagnitude(NegA, addMagnitude(MA, MB));
  if (compareMagnitude(MA, MB) >= 0)
    return fromMagnitude(NegA, subMagnitude(MA, MB));
  return fromMagnitude(NegB, subMagnitude(MB, MA));
}

BigInt BigInt::mulSlow(const BigInt &A, const BigInt &B) {
  if (A.isZero() || B.isZero())
    return BigInt();
  uint64_t ScratchA, ScratchB;
  MagnitudeRef MA = A.magnitude(ScratchA), MB = B.magnitude(ScratchB);
  std::vector<uint64_t> Product(MA.Size + MB.Size, 0);
  for (size_t I = 0; I < MA.Size; ++I) {
    unsigned __int128 Carry = 0;
    for (size_t J = 0; J < MB.Size; ++J) {
      unsigned __int128 Cur = Product[I + J];
      Cur += static_cast<unsigned __int128>(MA.Data[I]) * MB.Data[J] + Carry;
      Product[I + J] = static_cast<uint64_t>(Cur);
      Carry = Cur >> 64;
    }
    size_t K = I + MB.Size;
    while (Carry != 0) {
      unsigned __int128 Cur = Product[K];
      Cur += Carry;
      Product[K] = static_cast<uint64_t>(Cur);
      Carry = Cur >> 64;
      ++K;
    }
  }
  return fromMagnitude((A.Small < 0) != (B.Small < 0), std::move(Product));
}

size_t BigInt::bitLength() const {
  uint64_t Scratch;
  MagnitudeRef Mag = magnitude(Scratch);
  if (Mag.Size == 0)
    return 0;
  return Mag.Size * 64 - __builtin_clzll(Mag.Data[Mag.Size - 1]);
}

BigInt::DivModResult BigInt::divMod(const BigInt &Divisor) const {
  assert(!Divisor.isZero() && "division by zero");
  if (!bothInline(Divisor))
    return divModSlow(Divisor);
  // INT64_MIN / -1 is the one inline quotient that overflows.
  if (Divisor.Small == -1)
    return {-*this, BigInt()};
  return {BigInt(Small / Divisor.Small), BigInt(Small % Divisor.Small)};
}

BigInt::DivModResult BigInt::divModSlow(const BigInt &Divisor) const {
  bool Negative = Small < 0;
  bool QuotientNegative = Negative != (Divisor.Small < 0);
  uint64_t ScratchA, ScratchB;
  MagnitudeRef MA = magnitude(ScratchA), MB = Divisor.magnitude(ScratchB);
  if (compareMagnitude(MA, MB) < 0)
    return {BigInt(), *this};

  std::vector<uint64_t> Quotient(MA.Size, 0);
  if (MB.Size == 1) {
    // Short division by a one-limb divisor, most significant limb first.
    uint64_t D = MB.Data[0];
    unsigned __int128 Rem = 0;
    for (size_t I = MA.Size; I-- > 0;) {
      unsigned __int128 Cur = (Rem << 64) | MA.Data[I];
      Quotient[I] = static_cast<uint64_t>(Cur / D);
      Rem = Cur % D;
    }
    return {fromMagnitude(QuotientNegative, std::move(Quotient)),
            fromMagnitude(Negative, static_cast<uint64_t>(Rem))};
  }

  // Shift-subtract long division over magnitudes, in place.
  const size_t Bits = bitLength();
  std::vector<uint64_t> Rem;
  Rem.reserve(MB.Size + 1);
  for (size_t I = Bits; I-- > 0;) {
    // Rem = Rem * 2 + bit(I).
    uint64_t Carry = (MA.Data[I / 64] >> (I % 64)) & 1;
    for (uint64_t &Limb : Rem) {
      uint64_t Next = Limb >> 63;
      Limb = (Limb << 1) | Carry;
      Carry = Next;
    }
    if (Carry != 0)
      Rem.push_back(Carry);
    if (compareMagnitude({Rem.data(), Rem.size()}, MB) >= 0) {
      subtractInPlace(Rem, MB.Data, MB.Size);
      Quotient[I / 64] |= uint64_t(1) << (I % 64);
    }
  }
  return {fromMagnitude(QuotientNegative, std::move(Quotient)),
          fromMagnitude(Negative, std::move(Rem))};
}

BigInt BigInt::operator/(const BigInt &RHS) const {
  return divMod(RHS).Quotient;
}

BigInt BigInt::operator%(const BigInt &RHS) const {
  return divMod(RHS).Remainder;
}

BigInt BigInt::euclideanMod(const BigInt &Divisor) const {
  BigInt R = *this % Divisor;
  if (R.isNegative())
    R += Divisor.abs();
  return R;
}

BigInt BigInt::gcd(const BigInt &A, const BigInt &B) {
  BigInt X = A.abs(), Y = B.abs();
  while (!Y.isZero()) {
    if (X.bothInline(Y))
      return fromMagnitude(false, std::gcd(magnitudeOf(X.Small),
                                           magnitudeOf(Y.Small)));
    BigInt R = X % Y;
    X = std::move(Y);
    Y = std::move(R);
  }
  return X;
}

int BigInt::compareSlow(const BigInt &RHS) const {
  int Sign = signum(), RHSSign = RHS.signum();
  if (Sign != RHSSign)
    return Sign < RHSSign ? -1 : 1;
  uint64_t ScratchA, ScratchB;
  int Mag = compareMagnitude(magnitude(ScratchA), RHS.magnitude(ScratchB));
  return Sign < 0 ? -Mag : Mag;
}

double BigInt::toDouble() const {
  if (Limbs.empty())
    return static_cast<double>(Small);
  double Result = 0;
  for (size_t I = Limbs.size(); I-- > 0;)
    Result = Result * 18446744073709551616.0 + static_cast<double>(Limbs[I]);
  return Small < 0 ? -Result : Result;
}

std::string BigInt::toString() const {
  if (Limbs.empty())
    return std::to_string(Small);
  // Peel base-10^19 chunks off the magnitude by short division.
  constexpr uint64_t ChunkBase = 10000000000000000000ULL;
  std::vector<uint64_t> Value = Limbs;
  std::string Digits;
  while (!Value.empty()) {
    unsigned __int128 Rem = 0;
    for (size_t I = Value.size(); I-- > 0;) {
      unsigned __int128 Cur = (Rem << 64) | Value[I];
      Value[I] = static_cast<uint64_t>(Cur / ChunkBase);
      Rem = Cur % ChunkBase;
    }
    stripLeadingZeros(Value);
    uint64_t Chunk = static_cast<uint64_t>(Rem);
    for (int D = 0; D < 19 && (Chunk != 0 || !Value.empty()); ++D) {
      Digits.push_back(static_cast<char>('0' + Chunk % 10));
      Chunk /= 10;
    }
  }
  if (Small < 0)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

size_t BigInt::hash() const {
  size_t Seed = Small < 0 ? 0x9e3779b97f4a7c15ULL : 0;
  uint64_t Scratch;
  MagnitudeRef Mag = magnitude(Scratch);
  for (size_t I = 0; I < Mag.Size; ++I)
    Seed ^= static_cast<size_t>(Mag.Data[I]) + 0x9e3779b97f4a7c15ULL +
            (Seed << 6) + (Seed >> 2);
  return Seed;
}
