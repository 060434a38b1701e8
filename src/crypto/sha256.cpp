#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "crypto/sha256_kernels.hpp"
#include "support/assert.hpp"

namespace lyra::crypto {

namespace {

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// The state words, big-endian. Written as whole-word stores: the
// byte-by-byte form vectorizes into a long shuffle sequence that costs as
// much as a compression on the short-message paths.
Digest to_digest(const std::array<std::uint32_t, 8>& state) {
  Digest out;
  for (int i = 0; i < 8; ++i) {
    std::uint32_t word = state[i];
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap32(word);
    }
    std::memcpy(out.data() + 4 * i, &word, sizeof word);
  }
  return out;
}

void store_bit_length(std::uint8_t* block, std::uint64_t byte_len) {
  const std::uint64_t bits = byte_len * 8;
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
}

}  // namespace

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInit;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) { update(data.data(), data.size()); }

void Sha256::update(const void* data, std::size_t len) {
  if (len == 0) return;  // an empty span may carry a null pointer
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == buffer_.size()) {
      detail::sha256_compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (len >= 64) {
    // All whole blocks go through the kernel in one call so the
    // dispatched implementation amortizes its setup across the run.
    const std::size_t nblocks = len / 64;
    detail::sha256_compress(state_.data(), p, nblocks);
    p += nblocks * 64;
    len -= nblocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffer_len_ = len;
  }
}

Digest Sha256::finalize() {
  // Padding, written into the buffer in place: 0x80, zeros, then the
  // 64-bit big-endian message length in the last 8 bytes of a block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    detail::sha256_compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  store_bit_length(buffer_.data(), total_len_);
  detail::sha256_compress(state_.data(), buffer_.data(), 1);
  return to_digest(state_);
}

Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest Sha256::finish_with(BytesView tail) const {
  LYRA_ASSERT(buffer_len_ == 0 && tail.size() < 56,
              "finish_with needs a block-aligned state and a short tail");
  std::uint8_t block[64] = {};
  std::memcpy(block, tail.data(), tail.size());
  block[tail.size()] = 0x80;
  store_bit_length(block, total_len_ + tail.size());
  std::array<std::uint32_t, 8> state = state_;
  detail::sha256_compress(state.data(), block, 1);
  return to_digest(state);
}

const char* Sha256::backend_name() { return detail::sha256_backend_name(); }

}  // namespace lyra::crypto
