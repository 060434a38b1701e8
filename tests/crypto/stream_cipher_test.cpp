#include "crypto/stream_cipher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "crypto/hash.hpp"

namespace lyra::crypto {
namespace {

Bytes pattern(std::size_t len) {
  Bytes data(len);
  for (std::size_t i = 0; i < len; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  return data;
}

// Pinned digests of the ciphertext at lengths around the 32-byte keystream
// block. Cross-checked against SHA256(key || le64(i)) computed
// independently, so the one-block fast path cannot drift.
TEST(StreamCipher, KeystreamIsPinned) {
  const Digest key = Sha256::hash(to_bytes("keystream"));
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "281c93990bac2c69cf372c9a3b66c406c86cca826d6407b68e644da22eef8186"},
      {31, "6670040b3f11a4588365ddc24072277df60d7bd33e56428fb587e54607986603"},
      {32, "a29dfa769b2e4b67c40ee57d710064a87f362f50ec82bfe66d9af559708976a2"},
      {33, "36831fb733a1f09921e5bc7ec6b9f16ed2d3b16133f6a50cbb24f963822487fb"},
      {5000,
       "541405c659e3a7035ec4479a332cedea9b42001e9b04c71ce9b5e66242448caf"},
  };
  for (const auto& [len, expected] : cases) {
    EXPECT_EQ(digest_hex(Sha256::hash(xor_keystream(key, pattern(len)))),
              expected)
        << len;
  }
}

TEST(StreamCipher, KeystreamBlockIsHashOfKeyAndCounter) {
  const Digest key = Sha256::hash(to_bytes("k"));
  const Bytes zeros(96, 0);
  const Bytes ks = xor_keystream(key, zeros);
  for (std::uint64_t ctr = 0; ctr < 3; ++ctr) {
    Bytes input(key.begin(), key.end());
    append_u64(input, ctr);
    const Digest block = Sha256::hash(input);
    EXPECT_TRUE(std::equal(block.begin(), block.end(), ks.begin() + 32 * ctr))
        << ctr;
  }
}

}  // namespace
}  // namespace lyra::crypto
