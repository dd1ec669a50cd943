//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the support library: symbols, RNG, permutations,
/// formatting, the CRC-32 and the payload codec.
///
//===----------------------------------------------------------------------===//

#include "support/Format.h"
#include "support/Permutation.h"
#include "support/RecordLog.h"
#include "support/Rng.h"
#include "support/Symbol.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The reflected CRC-32 check value, shared by the wire frames, TSRL
  // blocks and RecordLog records. 34 bytes run the 8-byte slices and the
  // byte tail.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the", 34), 0x3163E78Au);
}

TEST(PayloadReader, RoundTripsAndRejectsShortOrTrailingBytes) {
  std::string P;
  putU8(P, 7);
  putU64(P, 0x0123456789ABCDEFull);
  putStr(P, std::string("a\0b", 3));
  uint8_t B = 0;
  uint64_t W = 0;
  std::string S;
  PayloadReader R(P);
  EXPECT_TRUE(R.u8(B) && R.u64(W) && R.str(S) && R.done());
  EXPECT_EQ(B, 7u);
  EXPECT_EQ(W, 0x0123456789ABCDEFull);
  EXPECT_EQ(S, std::string("a\0b", 3));
  PayloadReader Short(std::string_view(P).substr(0, P.size() - 1));
  EXPECT_FALSE(Short.u8(B) && Short.u64(W) && Short.str(S));
  const std::string Longer = P + "x";
  PayloadReader Trailing(Longer);
  EXPECT_TRUE(Trailing.u8(B) && Trailing.u64(W) && Trailing.str(S));
  EXPECT_FALSE(Trailing.done());
}

TEST(Symbol, InternIsIdempotent) {
  SymbolId A = Symbol::intern("support_test_sym");
  SymbolId B = Symbol::intern("support_test_sym");
  EXPECT_EQ(A, B);
  EXPECT_EQ(Symbol::name(A), "support_test_sym");
}

TEST(Symbol, DistinctNamesGetDistinctIds) {
  EXPECT_NE(Symbol::intern("support_a"), Symbol::intern("support_b"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  bool Differs = false;
  for (int I = 0; I < 10 && !Differs; ++I)
    Differs = A.next() != B.next();
  EXPECT_TRUE(Differs);
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(13), 13u);
}

TEST(Rng, RangeIsInclusive) {
  Rng R(7);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.range(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Permutation, IdentityAndInversion) {
  Permutation Id = identityPermutation(5);
  EXPECT_TRUE(isPermutation(Id));
  EXPECT_EQ(invertPermutation(Id), Id);
  Permutation P = {2, 0, 1};
  EXPECT_TRUE(isPermutation(P));
  Permutation Inv = invertPermutation(P);
  EXPECT_EQ(Inv, (Permutation{1, 2, 0}));
}

TEST(Permutation, RejectsNonBijections) {
  EXPECT_FALSE(isPermutation({0, 0}));
  EXPECT_FALSE(isPermutation({0, 2}));
  EXPECT_TRUE(isPermutation({}));
}

TEST(Permutation, EnumeratesAllPermutations) {
  size_t Count = 0;
  forEachPermutation(
      4, [](const Permutation &, size_t) { return true; },
      [&](const Permutation &P) {
        EXPECT_TRUE(isPermutation(P));
        ++Count;
        return true;
      });
  EXPECT_EQ(Count, 24u);
}

TEST(Permutation, AdmissiblePruningCuts) {
  // Only permutations fixing position 0 survive.
  size_t Count = 0;
  forEachPermutation(
      4,
      [](const Permutation &P, size_t I) { return I != 0 || P[0] == 0; },
      [&](const Permutation &) {
        ++Count;
        return true;
      });
  EXPECT_EQ(Count, 6u);
}

TEST(Permutation, VisitCanStopEarly) {
  size_t Count = 0;
  bool Completed = forEachPermutation(
      4, [](const Permutation &, size_t) { return true; },
      [&](const Permutation &) { return ++Count < 5; });
  EXPECT_FALSE(Completed);
  EXPECT_EQ(Count, 5u);
}

TEST(Permutation, InversionCount) {
  EXPECT_EQ(inversionCount(identityPermutation(4)), 0u);
  EXPECT_EQ(inversionCount({3, 2, 1, 0}), 6u);
  EXPECT_EQ(inversionCount({1, 0}), 1u);
}

TEST(Format, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(Format, Indent) {
  EXPECT_EQ(indent("a\nb", 2), "  a\n  b");
  EXPECT_EQ(indent("", 2), "");
}

} // namespace
