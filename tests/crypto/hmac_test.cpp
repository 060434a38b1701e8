#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/hash.hpp"
#include "support/hex.hpp"

namespace lyra::crypto {
namespace {

// RFC 4231 test vectors for HMAC-SHA-256.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes msg = to_bytes("Hi There");
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Bytes key = to_bytes("Jefe");
  const Bytes msg = to_bytes("what do ya want for nothing?");
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const Bytes msg = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// The same RFC 4231 vectors streamed in pieces into a copy of an
// HmacKey's inner state, the path KeyRegistry signs through; the key is
// reusable afterwards.
TEST(Hmac, HmacKeyStreamsRfc4231) {
  struct Case {
    Bytes key;
    Bytes msg;
    const char* mac;
  };
  const Case cases[] = {
      {Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {Bytes(131, 0xaa),
       to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const Case& c : cases) {
    const HmacKey key(c.key);
    Sha256 h = key.inner();
    for (std::size_t at = 0; at < c.msg.size(); at += 5) {
      h.update(c.msg.data() + at, std::min<std::size_t>(5, c.msg.size() - at));
    }
    EXPECT_EQ(digest_hex(key.finish(h)), c.mac);
    EXPECT_EQ(digest_hex(key.mac(c.msg)), c.mac);
  }
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  const Bytes msg = to_bytes("message");
  EXPECT_NE(hmac_sha256(to_bytes("key1"), msg),
            hmac_sha256(to_bytes("key2"), msg));
}

TEST(Hmac, DifferentMessagesDifferentMacs) {
  const Bytes key = to_bytes("key");
  EXPECT_NE(hmac_sha256(key, to_bytes("m1")),
            hmac_sha256(key, to_bytes("m2")));
}

}  // namespace
}  // namespace lyra::crypto
