#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "crypto/hash.hpp"
#include "support/hex.hpp"

namespace lyra::crypto {
namespace {

std::string hash_hex(std::string_view input) {
  return digest_hex(Sha256::hash(to_bytes(input)));
}

// NIST FIPS 180-4 example vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(BytesView(data).subspan(0, split));
    h.update(BytesView(data).subspan(split));
    EXPECT_EQ(h.finalize(), Sha256::hash(data)) << "split at " << split;
  }
}

TEST(Sha256, PaddingBoundaries) {
  // Every padding branch of finalize(), around the 56-byte length slot and
  // the 64-byte block: the terminator and length fit in the last block,
  // spill into an extra one, or start a fresh one. Each input is also fed
  // one byte at a time and in uneven pieces, so the buffered path pads too.
  // Digests cross-checked against an independent SHA-256.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "16ed9c4697ca11d5f6fb25ea7900252dd4cb97215d7f6d0b2bb3e2a86ac0ec72"},
      {56, "939ada93b2fe1e9c596d767bb408567c83e253667f0b25e5be8e16f35f2cbac9"},
      {57, "ab84281f3b181e6cfc7cf870c7f3e7912be6fd1ac49c7dd6b21f6c25bb9a5eaa"},
      {63, "6073f83b09ae82016cdbe24c18996c48f0eaa08ca675d0f6b90b807fc29e0149"},
      {64, "b337ba9b0c69c391364e985fdcb23a889887e59800832c92fbfa22b8a3c40304"},
      {65, "9d6a3fb113b586b4ab97bc11c993a27bd9b7bbcb756e0646083dc47a679600e6"},
      {119, "9773fbac8194c3d789af101b49b6a26073076895ef6e0f658432849dd477a43f"},
      {120, "070a538f085dd94821d4dc197c5c8b791051891d4fa2a1bf25d3c275236676f7"},
      {121, "05a3caed94d5ee13402c4422abc9fa3ab0dbda743a8480a12cafefe5e5da992c"},
  };
  for (const auto& [len, expected] : cases) {
    Bytes data(len);
    for (std::size_t i = 0; i < len; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 131u + 7u);
    }
    EXPECT_EQ(digest_hex(Sha256::hash(data)), expected) << len;
    for (const std::size_t piece : {1u, 7u, 33u}) {
      Sha256 h;
      for (std::size_t at = 0; at < len; at += piece) {
        h.update(data.data() + at, std::min(piece, len - at));
      }
      EXPECT_EQ(digest_hex(h.finalize()), expected) << len << "/" << piece;
    }
  }
}

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  h.update(to_bytes("abc"));
  (void)h.finalize();
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(digest_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Hasher, FieldBoundariesMatter) {
  // ("ab", "c") and ("a", "bc") must hash differently: fields are
  // length-prefixed.
  const Digest d1 = Hasher().add_str("ab").add_str("c").digest();
  const Digest d2 = Hasher().add_str("a").add_str("bc").digest();
  EXPECT_NE(d1, d2);
}

TEST(Hasher, DeterministicAcrossCalls) {
  const Digest d1 = Hasher().add_u64(7).add_i64(-3).add_str("x").digest();
  const Digest d2 = Hasher().add_u64(7).add_i64(-3).add_str("x").digest();
  EXPECT_EQ(d1, d2);
}

TEST(Hasher, DigestShortIsPrefix) {
  const Digest d = Sha256::hash(to_bytes("abc"));
  EXPECT_EQ(digest_short(d), digest_hex(d).substr(0, 8));
}

}  // namespace
}  // namespace lyra::crypto
