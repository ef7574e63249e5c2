//===- tests/SupportTest.cpp - BigInt/Rational/DeltaRational tests --------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"
#include "support/DeltaRational.h"
#include "support/Random.h"
#include "support/Rational.h"

#include <gtest/gtest.h>

using namespace la;

//===----------------------------------------------------------------------===//
// BigInt
//===----------------------------------------------------------------------===//

TEST(BigIntTest, ConstructionAndSign) {
  EXPECT_TRUE(BigInt().isZero());
  EXPECT_EQ(BigInt(0).signum(), 0);
  EXPECT_EQ(BigInt(5).signum(), 1);
  EXPECT_EQ(BigInt(-5).signum(), -1);
  EXPECT_TRUE(BigInt(1).isOne());
  EXPECT_FALSE(BigInt(-1).isOne());
}

TEST(BigIntTest, Int64RoundTrip) {
  for (int64_t V : {int64_t(0), int64_t(1), int64_t(-1), int64_t(42),
                    INT64_MAX, INT64_MIN, INT64_MIN + 1}) {
    BigInt B(V);
    ASSERT_TRUE(B.toInt64().has_value()) << V;
    EXPECT_EQ(*B.toInt64(), V);
  }
}

TEST(BigIntTest, Int64OverflowDetected) {
  BigInt Big = BigInt(INT64_MAX) + BigInt(1);
  EXPECT_FALSE(Big.toInt64().has_value());
  BigInt Min = BigInt(INT64_MIN);
  EXPECT_TRUE(Min.toInt64().has_value());
  EXPECT_FALSE((Min - BigInt(1)).toInt64().has_value());
}

TEST(BigIntTest, StringRoundTrip) {
  const char *Cases[] = {"0", "1", "-1", "12345678901234567890123456789",
                         "-987654321098765432109876543210"};
  for (const char *Text : Cases) {
    auto Parsed = BigInt::fromString(Text);
    ASSERT_TRUE(Parsed.has_value()) << Text;
    EXPECT_EQ(Parsed->toString(), Text);
  }
  EXPECT_FALSE(BigInt::fromString("").has_value());
  EXPECT_FALSE(BigInt::fromString("-").has_value());
  EXPECT_FALSE(BigInt::fromString("12x").has_value());
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt A = *BigInt::fromString("18446744073709551615"); // 2^64 - 1
  BigInt B = A + BigInt(1);
  EXPECT_EQ(B.toString(), "18446744073709551616");
  EXPECT_EQ((B - BigInt(1)).toString(), A.toString());
}

TEST(BigIntTest, MultiplicationLarge) {
  BigInt A = *BigInt::fromString("123456789123456789123456789");
  BigInt B = *BigInt::fromString("987654321987654321");
  EXPECT_EQ((A * B).toString(),
            "121932631356500531469135800347203169112635269");
  EXPECT_EQ((A * BigInt(0)).toString(), "0");
  EXPECT_EQ((A * BigInt(-1)).toString(), "-" + A.toString());
}

TEST(BigIntTest, DivModTruncatesTowardZero) {
  auto Check = [](int64_t A, int64_t B) {
    BigInt::DivModResult QR = BigInt(A).divMod(BigInt(B));
    EXPECT_EQ(*QR.Quotient.toInt64(), A / B) << A << "/" << B;
    EXPECT_EQ(*QR.Remainder.toInt64(), A % B) << A << "%" << B;
  };
  Check(7, 2);
  Check(-7, 2);
  Check(7, -2);
  Check(-7, -2);
  Check(0, 5);
  Check(6, 3);
}

TEST(BigIntTest, DivModLargeReconstructs) {
  BigInt A = *BigInt::fromString("340282366920938463463374607431768211457");
  BigInt B = *BigInt::fromString("18446744073709551629");
  BigInt::DivModResult QR = A.divMod(B);
  EXPECT_EQ((QR.Quotient * B + QR.Remainder).toString(), A.toString());
  EXPECT_TRUE(QR.Remainder.abs() < B.abs());
}

TEST(BigIntTest, EuclideanModIsNonNegative) {
  EXPECT_EQ(*BigInt(-7).euclideanMod(BigInt(3)).toInt64(), 2);
  EXPECT_EQ(*BigInt(7).euclideanMod(BigInt(3)).toInt64(), 1);
  EXPECT_EQ(*BigInt(-6).euclideanMod(BigInt(3)).toInt64(), 0);
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(*BigInt::gcd(BigInt(12), BigInt(18)).toInt64(), 6);
  EXPECT_EQ(*BigInt::gcd(BigInt(-12), BigInt(18)).toInt64(), 6);
  EXPECT_EQ(*BigInt::gcd(BigInt(0), BigInt(5)).toInt64(), 5);
  EXPECT_EQ(*BigInt::gcd(BigInt(0), BigInt(0)).toInt64(), 0);
}

TEST(BigIntTest, ComparisonTotalOrder) {
  BigInt Values[] = {BigInt(-10), BigInt(-1), BigInt(0), BigInt(1),
                     *BigInt::fromString("99999999999999999999")};
  for (size_t I = 0; I < std::size(Values); ++I)
    for (size_t J = 0; J < std::size(Values); ++J) {
      EXPECT_EQ(Values[I] < Values[J], I < J);
      EXPECT_EQ(Values[I] == Values[J], I == J);
    }
}

/// Property test: ring axioms on pseudo-random 128-bit values.
TEST(BigIntTest, PropertyRingAxioms) {
  Random Rng(7);
  for (int Iter = 0; Iter < 200; ++Iter) {
    BigInt A = BigInt(Rng.nextInRange(-1000000, 1000000)) *
               BigInt(Rng.nextInRange(-1000000, 1000000));
    BigInt B = BigInt(Rng.nextInRange(-1000000, 1000000)) *
               BigInt(Rng.nextInRange(-1000000, 1000000));
    BigInt C(Rng.nextInRange(-1000, 1000));
    EXPECT_EQ((A + B).toString(), (B + A).toString());
    EXPECT_EQ((A * B).toString(), (B * A).toString());
    EXPECT_EQ(((A + B) * C).toString(), (A * C + B * C).toString());
    EXPECT_EQ((A - A).toString(), "0");
    if (!C.isZero()) {
      BigInt::DivModResult QR = A.divMod(C);
      EXPECT_EQ((QR.Quotient * C + QR.Remainder).toString(), A.toString());
      EXPECT_TRUE(QR.Remainder.abs() < C.abs());
    }
  }
}

//===----------------------------------------------------------------------===//
// BigInt inline/limb boundary, against an __int128 reference
//===----------------------------------------------------------------------===//

namespace {

using Int128 = __int128;
constexpr Int128 TwoTo63 = Int128(1) << 63;
constexpr Int128 TwoTo64 = Int128(1) << 64;

std::string int128ToString(Int128 V) {
  if (V == 0)
    return "0";
  bool Negative = V < 0;
  unsigned __int128 Magnitude =
      Negative ? ~static_cast<unsigned __int128>(V) + 1
               : static_cast<unsigned __int128>(V);
  std::string Digits;
  for (; Magnitude != 0; Magnitude /= 10)
    Digits.insert(Digits.begin(), static_cast<char>('0' + Magnitude % 10));
  if (Negative)
    Digits.insert(Digits.begin(), '-');
  return Digits;
}

BigInt bigFrom(Int128 V) { return *BigInt::fromString(int128ToString(V)); }

Int128 absOf(Int128 V) { return V < 0 ? -V : V; }

Int128 gcdOf(Int128 A, Int128 B) {
  A = absOf(A);
  B = absOf(B);
  while (B != 0) {
    Int128 R = A % B;
    A = B;
    B = R;
  }
  return A;
}

/// An operand within 1000 of one of the interesting centres: 0, +-2^31,
/// +-2^62, the int64 bounds, and the first limb-form values +-2^63, +-2^64.
Int128 drawNearBoundary(Random &Rng) {
  static const Int128 Centres[] = {0,
                                   Int128(1) << 31,
                                   -(Int128(1) << 31),
                                   Int128(1) << 62,
                                   -(Int128(1) << 62),
                                   INT64_MAX,
                                   INT64_MIN,
                                   TwoTo63,
                                   -TwoTo63 - 1,
                                   TwoTo64,
                                   -TwoTo64};
  Int128 Centre = Centres[Rng.nextBounded(std::size(Centres))];
  return Centre + Rng.nextInRange(-1000, 1000);
}

} // namespace

TEST(BigIntBoundaryTest, DifferentialAgainstInt128) {
  Random Rng(20240614);
  for (int Iter = 0; Iter < 20000; ++Iter) {
    Int128 A = drawNearBoundary(Rng), B = drawNearBoundary(Rng);
    BigInt BA = bigFrom(A), BB = bigFrom(B);
    std::string Ctx = int128ToString(A) + " , " + int128ToString(B);
    EXPECT_EQ(BA.toString(), int128ToString(A)) << Ctx;
    EXPECT_EQ((BA + BB).toString(), int128ToString(A + B)) << Ctx;
    EXPECT_EQ((BA - BB).toString(), int128ToString(A - B)) << Ctx;
    Int128 Product;
    if (!__builtin_mul_overflow(A, B, &Product)) {
      EXPECT_EQ((BA * BB).toString(), int128ToString(Product)) << Ctx;
    }
    EXPECT_EQ(BA.compare(BB), (A > B) - (A < B)) << Ctx;
    EXPECT_EQ(BA == BB, A == B) << Ctx;
    EXPECT_EQ(BigInt::gcd(BA, BB).toString(), int128ToString(gcdOf(A, B)))
        << Ctx;
    bool FitsInt64 = A >= INT64_MIN && A <= INT64_MAX;
    EXPECT_EQ(BA.toInt64().has_value(), FitsInt64) << Ctx;
    if (B == 0)
      continue;
    BigInt::DivModResult QR = BA.divMod(BB);
    EXPECT_EQ(QR.Quotient.toString(), int128ToString(A / B)) << Ctx;
    EXPECT_EQ(QR.Remainder.toString(), int128ToString(A % B)) << Ctx;
    EXPECT_EQ((BA / BB).toString(), int128ToString(A / B)) << Ctx;
    EXPECT_EQ((BA % BB).toString(), int128ToString(A % B)) << Ctx;
    Int128 Euclid = A % B < 0 ? A % B + absOf(B) : A % B;
    EXPECT_EQ(BA.euclideanMod(BB).toString(), int128ToString(Euclid)) << Ctx;
  }
}

TEST(BigIntBoundaryTest, NamedEdgeCases) {
  const BigInt Min(INT64_MIN);
  const std::string TwoTo63Text = "9223372036854775808";
  EXPECT_EQ((-Min).toString(), TwoTo63Text);
  EXPECT_FALSE((-Min).toInt64().has_value());
  EXPECT_EQ(Min.abs().toString(), TwoTo63Text);
  EXPECT_EQ((Min / BigInt(-1)).toString(), TwoTo63Text);
  EXPECT_EQ(Min.divMod(BigInt(-1)).Remainder, BigInt(0));
  EXPECT_EQ(Min % BigInt(-1), BigInt(0));
  // gcd(INT64_MIN, 0) = 2^63 does not fit in int64: it comes back in limb
  // form, and negating it lands back on the inline INT64_MIN.
  BigInt G = BigInt::gcd(Min, BigInt(0));
  EXPECT_EQ(G.toString(), TwoTo63Text);
  EXPECT_FALSE(G.toInt64().has_value());
  EXPECT_EQ((-G).toInt64(), std::optional<int64_t>(INT64_MIN));
  EXPECT_EQ(BigInt::gcd(Min, Min).toString(), TwoTo63Text);
  EXPECT_EQ((Min * BigInt(-1)).toString(), TwoTo63Text);
  EXPECT_EQ((BigInt(INT64_MAX) + BigInt(1)).toString(), TwoTo63Text);
  EXPECT_EQ((Min - BigInt(1)).toString(), "-9223372036854775809");
  EXPECT_EQ(Min.bitLength(), 64u);
  EXPECT_EQ(G.bitLength(), 64u);
}

TEST(BigIntBoundaryTest, PromotedAndDemotedValuesMatchDirectOnes) {
  Random Rng(99);
  for (int Iter = 0; Iter < 2000; ++Iter) {
    int64_t V = static_cast<int64_t>(drawNearBoundary(Rng) % TwoTo63);
    int64_t Other = static_cast<int64_t>(drawNearBoundary(Rng) % TwoTo63);
    if (Other == 0)
      Other = 3;
    BigInt Direct(V);
    // Push through limb form with a large multiple of `Other` and back.
    BigInt Wide = BigInt(INT64_MAX) * BigInt(Other);
    BigInt ViaSum = (Direct + Wide) - Wide;
    BigInt ViaProduct = (Direct * Wide) / Wide;
    for (const BigInt &Back : {ViaSum, ViaProduct}) {
      EXPECT_EQ(Back, Direct) << V;
      EXPECT_EQ(Back.compare(Direct), 0) << V;
      EXPECT_EQ(Back.hash(), Direct.hash()) << V;
      EXPECT_EQ(Back.toInt64(), std::optional<int64_t>(V)) << V;
    }
  }
}

TEST(BigIntBoundaryTest, HashIsPinned) {
  // Term interning and the octagon/transfer-cache keys hash through
  // BigInt::hash, so unordered iteration orders depend on these values.
  EXPECT_EQ(BigInt(0).hash(), 0u);
  EXPECT_EQ(BigInt(1).hash(), 11400714819323198486ULL);
  EXPECT_EQ(BigInt(-1).hash(), 14813675350809533518ULL);
  EXPECT_EQ(BigInt(INT64_MIN).hash(), 5590303313954757711ULL);
  EXPECT_EQ(BigInt::fromString("18446744073709551617")->hash(),
            14813675350809533581ULL);
}

TEST(RationalBoundaryTest, IntegerPathMatchesGeneralPath) {
  Random Rng(4242);
  const Rational Half(BigInt(1), BigInt(2));
  const Rational Third(BigInt(1), BigInt(3));
  for (int Iter = 0; Iter < 5000; ++Iter) {
    Rational A(bigFrom(drawNearBoundary(Rng))),
        B(bigFrom(drawNearBoundary(Rng)));
    ASSERT_TRUE(A.isInteger() && B.isInteger());
    // Each right-hand side detours through non-integer operands, so it runs
    // the general cross-multiply-and-reduce path.
    Rational Sum = (A + Half) + (B - Half);
    Rational Difference = (A + Half) - (B + Half);
    Rational Product = (A * Third) * (B * Rational(3));
    EXPECT_EQ(A + B, Sum);
    EXPECT_EQ(A - B, Difference);
    EXPECT_EQ(A * B, Product);
    EXPECT_EQ((A * B).hash(), Product.hash());
    EXPECT_TRUE((A + B).isInteger() && (A * B).isInteger());
    EXPECT_EQ(A.compare(B), (A + Half).compare(B + Half));
    EXPECT_EQ(Rational(A.numerator() * BigInt(6), BigInt(6)), A);
  }
}

//===----------------------------------------------------------------------===//
// Rational
//===----------------------------------------------------------------------===//

TEST(RationalTest, NormalizedOnConstruction) {
  Rational R(BigInt(4), BigInt(6));
  EXPECT_EQ(R.toString(), "2/3");
  Rational Neg(BigInt(4), BigInt(-6));
  EXPECT_EQ(Neg.toString(), "-2/3");
  Rational Zero(BigInt(0), BigInt(17));
  EXPECT_EQ(Zero.toString(), "0");
  EXPECT_TRUE(Zero.isInteger());
}

TEST(RationalTest, Arithmetic) {
  Rational Half(BigInt(1), BigInt(2));
  Rational Third(BigInt(1), BigInt(3));
  EXPECT_EQ((Half + Third).toString(), "5/6");
  EXPECT_EQ((Half - Third).toString(), "1/6");
  EXPECT_EQ((Half * Third).toString(), "1/6");
  EXPECT_EQ((Half / Third).toString(), "3/2");
  EXPECT_EQ((-Half).toString(), "-1/2");
  EXPECT_EQ(Half.inverse().toString(), "2");
}

TEST(RationalTest, Comparison) {
  Rational Half(BigInt(1), BigInt(2));
  Rational TwoThirds(BigInt(2), BigInt(3));
  EXPECT_LT(Half, TwoThirds);
  EXPECT_LT(Rational(-1), Half);
  EXPECT_EQ(Rational(2), Rational(BigInt(4), BigInt(2)));
}

TEST(RationalTest, FloorCeil) {
  Rational R(BigInt(7), BigInt(2)); // 3.5
  EXPECT_EQ(*R.floor().toInt64(), 3);
  EXPECT_EQ(*R.ceil().toInt64(), 4);
  Rational N(BigInt(-7), BigInt(2)); // -3.5
  EXPECT_EQ(*N.floor().toInt64(), -4);
  EXPECT_EQ(*N.ceil().toInt64(), -3);
  Rational I(5);
  EXPECT_EQ(*I.floor().toInt64(), 5);
  EXPECT_EQ(*I.ceil().toInt64(), 5);
}

TEST(RationalTest, FromString) {
  EXPECT_EQ(Rational::fromString("3/6")->toString(), "1/2");
  EXPECT_EQ(Rational::fromString("-4")->toString(), "-4");
  EXPECT_FALSE(Rational::fromString("1/0").has_value());
  EXPECT_FALSE(Rational::fromString("a/b").has_value());
}

/// Property test: field axioms on random small fractions.
TEST(RationalTest, PropertyFieldAxioms) {
  Random Rng(11);
  for (int Iter = 0; Iter < 200; ++Iter) {
    Rational A(BigInt(Rng.nextInRange(-50, 50)),
               BigInt(Rng.nextInRange(1, 20)));
    Rational B(BigInt(Rng.nextInRange(-50, 50)),
               BigInt(Rng.nextInRange(1, 20)));
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ(A - A, Rational(0));
    if (!B.isZero()) {
      EXPECT_EQ(A / B * B, A);
    }
    EXPECT_TRUE(A.floor() <= A.ceil());
    EXPECT_TRUE(Rational(A.floor()) <= A && A <= Rational(A.ceil()));
  }
}

//===----------------------------------------------------------------------===//
// DeltaRational
//===----------------------------------------------------------------------===//

TEST(DeltaRationalTest, LexicographicOrder) {
  DeltaRational A(Rational(1));                 // 1
  DeltaRational B(Rational(1), Rational(1));    // 1 + d
  DeltaRational C(Rational(1), Rational(-1));   // 1 - d
  DeltaRational D(Rational(2), Rational(-100)); // 2 - 100d
  EXPECT_LT(C, A);
  EXPECT_LT(A, B);
  EXPECT_LT(B, D);
  EXPECT_EQ(A, DeltaRational(Rational(1), Rational(0)));
}

TEST(DeltaRationalTest, Arithmetic) {
  DeltaRational A(Rational(3), Rational(1));
  DeltaRational B(Rational(1), Rational(-2));
  EXPECT_EQ((A + B).real(), Rational(4));
  EXPECT_EQ((A + B).delta(), Rational(-1));
  EXPECT_EQ((A - B).real(), Rational(2));
  EXPECT_EQ((A - B).delta(), Rational(3));
  DeltaRational Scaled = A * Rational(-2);
  EXPECT_EQ(Scaled.real(), Rational(-6));
  EXPECT_EQ(Scaled.delta(), Rational(-2));
}

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(RandomTest, DeterministicAndInRange) {
  Random A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Random C(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = C.nextInRange(-3, 9);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 9);
    double D = C.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

//===----------------------------------------------------------------------===//
// ProcessRunner
//===----------------------------------------------------------------------===//

#include "support/ProcessRunner.h"

#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unistd.h>

// TSan does not support fork() from a multithreaded process and aborts the
// run; the process-isolation paths are exercised by the other sanitizer
// jobs and the plain build.
#if defined(__SANITIZE_THREAD__)
#define LA_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LA_TSAN_ACTIVE 1
#endif
#endif
#ifndef LA_TSAN_ACTIVE
#define LA_TSAN_ACTIVE 0
#endif

// ASan intercepts SIGSEGV (the child exits instead of dying on the signal)
// and its shadow memory is incompatible with small RLIMIT_AS caps, so the
// crash/memory classification tests relax or skip under ASan.
#if defined(__SANITIZE_ADDRESS__)
#define LA_ASAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LA_ASAN_ACTIVE 1
#endif
#endif
#ifndef LA_ASAN_ACTIVE
#define LA_ASAN_ACTIVE 0
#endif

#if LA_TSAN_ACTIVE
#define LA_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork() from a multithreaded TSan process is unsupported"
#else
#define LA_SKIP_UNDER_TSAN() (void)0
#endif

TEST(ProcessRunnerTest, CompletedChildReturnsPayload) {
  LA_SKIP_UNDER_TSAN();
  ProcessResult R = runInChildProcess(
      [] { return std::string("hello from the child"); }, ProcessLimits{});
  EXPECT_EQ(R.Outcome, LaneOutcome::Completed) << R.describe();
  EXPECT_EQ(R.Payload, "hello from the child");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Signal, 0);
}

TEST(ProcessRunnerTest, LargePayloadSurvivesThePipe) {
  LA_SKIP_UNDER_TSAN();
  // Larger than any pipe buffer, so the child blocks writing while the
  // parent drains.
  std::string Big(4 << 20, 'x');
  ProcessResult R = runInChildProcess([&] { return Big; }, ProcessLimits{});
  ASSERT_EQ(R.Outcome, LaneOutcome::Completed) << R.describe();
  EXPECT_EQ(R.Payload, Big);
}

TEST(ProcessRunnerTest, ThrownExceptionIsFailedWithMessage) {
  LA_SKIP_UNDER_TSAN();
  ProcessResult R = runInChildProcess(
      []() -> std::string { throw std::runtime_error("engine exploded"); },
      ProcessLimits{});
  EXPECT_EQ(R.Outcome, LaneOutcome::Failed) << R.describe();
  EXPECT_EQ(R.Payload, "engine exploded");
  EXPECT_EQ(R.ExitCode, 3);
}

TEST(ProcessRunnerTest, SegfaultingChildIsContained) {
  LA_SKIP_UNDER_TSAN();
  ProcessResult R = runInChildProcess(
      []() -> std::string {
        std::raise(SIGSEGV);
        return "unreachable";
      },
      ProcessLimits{});
  // Under ASan the child's SEGV handler exits instead of re-raising, so
  // only assert the lane did not complete normally there.
#if LA_ASAN_ACTIVE
  EXPECT_NE(R.Outcome, LaneOutcome::Completed) << R.describe();
#else
  EXPECT_EQ(R.Outcome, LaneOutcome::Crashed) << R.describe();
  EXPECT_EQ(R.Signal, SIGSEGV);
  EXPECT_NE(R.describe().find("signal"), std::string::npos);
#endif
}

TEST(ProcessRunnerTest, AbortingChildIsContained) {
  LA_SKIP_UNDER_TSAN();
  ProcessResult R = runInChildProcess(
      []() -> std::string {
        std::abort();
      },
      ProcessLimits{});
  EXPECT_NE(R.Outcome, LaneOutcome::Completed) << R.describe();
#if !LA_ASAN_ACTIVE
  EXPECT_EQ(R.Outcome, LaneOutcome::Crashed) << R.describe();
  EXPECT_EQ(R.Signal, SIGABRT);
#endif
}

TEST(ProcessRunnerTest, WallDeadlineKillsSpinningChild) {
  LA_SKIP_UNDER_TSAN();
  ProcessLimits Limits;
  Limits.WallSeconds = 0.2;
  ProcessResult R = runInChildProcess(
      []() -> std::string {
        volatile bool KeepSpinning = true;
        while (KeepSpinning) {
        }
        return std::string();
      },
      Limits);
  EXPECT_EQ(R.Outcome, LaneOutcome::TimedOut) << R.describe();
  EXPECT_GE(R.Seconds, 0.2);
  EXPECT_LT(R.Seconds, 30.0);
}

TEST(ProcessRunnerTest, PreTrippedTokenCancelsImmediately) {
  LA_SKIP_UNDER_TSAN();
  auto Token = std::make_shared<CancellationToken>();
  Token->cancel();
  ProcessResult R = runInChildProcess(
      []() -> std::string {
        volatile bool KeepSpinning = true;
        while (KeepSpinning) {
        }
        return std::string();
      },
      ProcessLimits{}, Token);
  EXPECT_EQ(R.Outcome, LaneOutcome::Cancelled) << R.describe();
}

/// Forks a grandchild that holds the inherited pipe write end for three
/// seconds after the child is gone, as a sibling lane forked from another
/// thread does. It lets go of the standard streams, so that it holds up no
/// reader of the test's own output.
void forkPipeHolder() {
  if (::fork() == 0) {
    for (int Fd = 0; Fd <= 2; ++Fd)
      ::close(Fd);
    ::sleep(3);
    ::_exit(0);
  }
}

TEST(ProcessRunnerTest, ChildExitEndsTheWaitWhilePipeCopyOutlivesIt) {
  LA_SKIP_UNDER_TSAN();
  ProcessResult R = runInChildProcess(
      [] {
        forkPipeHolder();
        return std::string("done");
      },
      ProcessLimits{});
  EXPECT_EQ(R.Outcome, LaneOutcome::Completed) << R.describe();
  EXPECT_EQ(R.Payload, "done");
  // Waiting for pipe EOF would last until the holder exits.
  EXPECT_LT(R.Seconds, 2.0);
}

#if !LA_ASAN_ACTIVE
TEST(ProcessRunnerTest, CrashBeforeCancellationStaysACrash) {
  LA_SKIP_UNDER_TSAN();
  // The child aborts at once; the token trips well after that. The lane
  // crashed on its own, so it must not be reported as cancelled.
  auto Token = std::make_shared<CancellationToken>();
  std::thread Tripper([Token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    Token->cancel();
  });
  ProcessResult R = runInChildProcess(
      []() -> std::string {
        forkPipeHolder();
        std::abort();
      },
      ProcessLimits{}, Token);
  Tripper.join();
  EXPECT_EQ(R.Outcome, LaneOutcome::Crashed) << R.describe();
  EXPECT_EQ(R.Signal, SIGABRT);
}
#endif

#if !LA_ASAN_ACTIVE
TEST(ProcessRunnerTest, MemoryLimitContainsAllocation) {
  LA_SKIP_UNDER_TSAN();
  ProcessLimits Limits;
  Limits.MemoryBytes = size_t(64) << 20;
  Limits.WallSeconds = 30;
  ProcessResult R = runInChildProcess(
      []() -> std::string {
        // Touch every page so the allocation is real.
        std::string Huge;
        for (int I = 0; I < 64; ++I)
          Huge.append(size_t(16) << 20, char('a' + I % 26));
        return std::string("allocated ") + std::to_string(Huge.size());
      },
      Limits);
  EXPECT_EQ(R.Outcome, LaneOutcome::MemoryLimit) << R.describe();
}
#endif

TEST(ProcessRunnerTest, OutcomeNamesAreStable) {
  EXPECT_STREQ(toString(LaneOutcome::Completed), "completed");
  EXPECT_STREQ(toString(LaneOutcome::Failed), "failed");
  EXPECT_STREQ(toString(LaneOutcome::Crashed), "crashed");
  EXPECT_STREQ(toString(LaneOutcome::TimedOut), "timed-out");
  EXPECT_STREQ(toString(LaneOutcome::Cancelled), "cancelled");
  EXPECT_STREQ(toString(LaneOutcome::CpuLimit), "cpu-limit");
  EXPECT_STREQ(toString(LaneOutcome::MemoryLimit), "memory-limit");
}

//===----------------------------------------------------------------------===//
// FileCache
//===----------------------------------------------------------------------===//

#include "support/FileCache.h"

namespace {

/// Fresh cache directory per test, removed on destruction.
struct TempCacheDir {
  std::string Path;
  TempCacheDir() {
    char Template[] = "/tmp/la-filecache-test-XXXXXX";
    const char *Made = mkdtemp(Template);
    EXPECT_NE(Made, nullptr);
    Path = Made ? Made : "/tmp/la-filecache-test-fallback";
  }
  ~TempCacheDir() {
    std::string Cmd = "rm -rf '" + Path + "'";
    if (std::system(Cmd.c_str()) != 0) {
    }
  }
};

} // namespace

TEST(FileCacheTest, RoundTripAndPersistence) {
  TempCacheDir Dir;
  FileCache::Options O;
  O.Dir = Dir.Path + "/nested/cache"; // Parents are created on demand.
  std::string Key = "v1|" + FileCache::hashKey("some system") + "|la|b6";
  {
    FileCache Cache(O);
    std::string Value;
    EXPECT_FALSE(Cache.lookup(Key, Value));
    Cache.store(Key, "sat with a model\nline two");
    ASSERT_TRUE(Cache.lookup(Key, Value));
    EXPECT_EQ(Value, "sat with a model\nline two");
    EXPECT_EQ(Cache.stats().Hits, 1u);
    EXPECT_EQ(Cache.stats().Misses, 1u);
    EXPECT_EQ(Cache.stats().Stores, 1u);
  }
  // A second cache over the same directory — a daemon restart — still
  // serves the record.
  FileCache Reopened(O);
  std::string Value;
  ASSERT_TRUE(Reopened.lookup(Key, Value));
  EXPECT_EQ(Value, "sat with a model\nline two");
}

TEST(FileCacheTest, OverwriteReplacesValue) {
  TempCacheDir Dir;
  FileCache Cache({Dir.Path, 0, 0});
  Cache.store("k", "old");
  Cache.store("k", "new");
  std::string Value;
  ASSERT_TRUE(Cache.lookup("k", Value));
  EXPECT_EQ(Value, "new");
}

TEST(FileCacheTest, CorruptRecordsReadAsMisses) {
  TempCacheDir Dir;
  FileCache::Options O;
  O.Dir = Dir.Path;
  FileCache Cache(O);
  Cache.store("the-key", "the-value");

  // Truncate every record in the directory to simulate a crash or disk
  // corruption mid-write.
  std::string Cmd = "for F in '" + Dir.Path +
                    "'/*.rec; do : > \"$F\"; done";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);

  std::string Value;
  EXPECT_FALSE(Cache.lookup("the-key", Value));
  EXPECT_GE(Cache.stats().CorruptDropped, 1u);
  // The corrupt record was unlinked; storing again works.
  Cache.store("the-key", "fresh");
  ASSERT_TRUE(Cache.lookup("the-key", Value));
  EXPECT_EQ(Value, "fresh");
}

TEST(FileCacheTest, GarbageRecordContentIsDropped) {
  TempCacheDir Dir;
  FileCache::Options O;
  O.Dir = Dir.Path;
  FileCache Cache(O);
  Cache.store("a-key", "a-value");
  std::string Cmd = "for F in '" + Dir.Path +
                    "'/*.rec; do printf 'not a record at all' > \"$F\"; done";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);
  std::string Value;
  EXPECT_FALSE(Cache.lookup("a-key", Value));
  EXPECT_GE(Cache.stats().CorruptDropped, 1u);
}

TEST(FileCacheTest, HashCollisionDegradesToMiss) {
  // Different key whose record file would be consulted: simulate by
  // writing key A then looking up a key that maps elsewhere — a lookup of
  // a never-stored key must miss even with records present.
  TempCacheDir Dir;
  FileCache Cache({Dir.Path, 0, 0});
  Cache.store("stored-key", "stored-value");
  std::string Value;
  EXPECT_FALSE(Cache.lookup("never-stored-key", Value));
}

TEST(FileCacheTest, EntryCapEvictsOldestRecords) {
  TempCacheDir Dir;
  FileCache::Options O;
  O.Dir = Dir.Path;
  O.MaxEntries = 8;
  O.MaxBytes = 0;
  FileCache Cache(O);
  for (int I = 0; I < 32; ++I)
    Cache.store("key-" + std::to_string(I), "value-" + std::to_string(I));
  EXPECT_GE(Cache.stats().Evictions, 1u);

  // At most the cap survives on disk (eviction goes to 90% of the cap).
  size_t Survivors = 0;
  std::string Value;
  for (int I = 0; I < 32; ++I)
    if (Cache.lookup("key-" + std::to_string(I), Value))
      ++Survivors;
  EXPECT_LE(Survivors, O.MaxEntries);
  EXPECT_GE(Survivors, 1u);
}

TEST(FileCacheTest, HashKeyIsStableAndCollisionResistant) {
  EXPECT_EQ(FileCache::hashKey("abc"), FileCache::hashKey("abc"));
  EXPECT_NE(FileCache::hashKey("abc"), FileCache::hashKey("abd"));
  EXPECT_EQ(FileCache::hashKey("x").size(), 32u);
  for (char C : FileCache::hashKey("x"))
    EXPECT_TRUE(isxdigit(static_cast<unsigned char>(C)));
}
