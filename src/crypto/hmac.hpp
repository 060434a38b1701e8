#pragma once

#include "crypto/sha256.hpp"
#include "support/bytes.hpp"

namespace lyra::crypto {

/// An HMAC-SHA256 key (RFC 2104) with both pad blocks already absorbed:
/// the SHA-256 states after `key ^ ipad` and after `key ^ opad` are
/// computed once, so each MAC costs only the message's own compressions
/// plus one for the outer hash. Verified against RFC 4231 test vectors.
class HmacKey {
 public:
  explicit HmacKey(BytesView key);

  /// The inner hash with the ipad block absorbed. Stream the message into
  /// this copy, then hand it to finish().
  Sha256 inner() const { return inner_; }

  /// Completes the MAC over whatever was streamed into `inner`.
  Digest finish(Sha256 inner) const;

  Digest mac(BytesView message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// One-shot HMAC-SHA256.
Digest hmac_sha256(BytesView key, BytesView message);

}  // namespace lyra::crypto
