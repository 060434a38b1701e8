#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.hpp"

namespace lyra::crypto {

/// 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 (FIPS 180-4). From-scratch implementation, verified
/// against the NIST test vectors in tests/crypto/sha256_test.cpp. The
/// block compression dispatches at runtime to the fastest kernel the host
/// CPU supports (x86 SHA extensions when present, unrolled portable code
/// otherwise) — see crypto/sha256_kernels.hpp.
class Sha256 {
 public:
  Sha256();

  void update(BytesView data);
  void update(const void* data, std::size_t len);

  /// Finalizes and returns the digest. The object must not be reused
  /// afterwards without calling reset().
  Digest finalize();

  void reset();

  /// One-shot convenience.
  static Digest hash(BytesView data);

  /// Digest of what was absorbed so far followed by `tail`, in a single
  /// compression: the absorbed input must end on a block boundary and
  /// `tail` must fit in one block with its padding (at most 55 bytes). The
  /// object is left unchanged, so one midstate serves many tails.
  Digest finish_with(BytesView tail) const;

  /// Name of the compression kernel selected at runtime ("sha-ni" or
  /// "scalar").
  static const char* backend_name();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace lyra::crypto
