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
