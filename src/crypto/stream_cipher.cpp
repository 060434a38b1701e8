#include "crypto/stream_cipher.hpp"

#include <algorithm>

namespace lyra::crypto {

Bytes xor_keystream(const Digest& key, BytesView data) {
  Bytes out(data.begin(), data.end());
  // key || le64(counter) is 40 bytes, so each keystream block costs one
  // compression from the initial state; only the counter bytes change.
  std::uint8_t input[40] = {};
  std::copy(key.begin(), key.end(), input);
  const Sha256 initial;

  std::uint64_t counter = 0;
  for (std::size_t pos = 0; pos < out.size(); pos += 32, ++counter) {
    for (int i = 0; i < 8; ++i) {
      input[32 + i] = static_cast<std::uint8_t>(counter >> (8 * i));
    }
    const Digest ks = initial.finish_with(input);
    const std::size_t take = std::min(ks.size(), out.size() - pos);
    for (std::size_t i = 0; i < take; ++i) out[pos + i] ^= ks[i];
  }
  return out;
}

}  // namespace lyra::crypto
