#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/keys.hpp"
#include "crypto/shamir.hpp"
#include "support/bytes.hpp"
#include "support/random.hpp"

namespace lyra::crypto {

/// A decryption share (paper: `vss-partial-decrypt`): process `owner`'s
/// Shamir share of the symmetric key protecting one ciphertext.
struct VssShare {
  NodeId owner = kNoNode;
  ShamirShare key_share;

  friend bool operator==(const VssShare&, const VssShare&) = default;
};

/// A (2f+1, n) verifiably-secret-shared ciphertext (paper: `vss-encrypt`).
///
/// Construction: the payload is encrypted under a fresh 32-byte symmetric
/// key with a SHA-256-CTR stream cipher; the key is split into n Shamir
/// shares over GF(2^8). Share i is *sealed* for process i by XORing it with
/// a keystream derived from process i's long-term secret and this cipher's
/// identity (the stand-in for encrypting the share under i's public key, so
/// the whole object can travel in a single broadcast). Every share is
/// committed to with a hash so that a wrong or corrupted share is detected
/// during reconstruction (the "verifiable" in VSS).
struct VssCipher {
  Bytes ciphertext;
  Digest payload_digest{};                // binds the plaintext
  std::vector<Bytes> sealed_shares;       // sealed_shares[i] for process i
  std::vector<Digest> share_commitments;  // H(cipher_id || i || share_i)

  /// Identity of this cipher: digest over ciphertext and payload digest.
  Digest cipher_id() const;
};

class Vss {
 public:
  /// n processes; `threshold` shares reconstruct (the paper uses 2f+1).
  Vss(const KeyRegistry* registry, std::uint32_t n, std::uint32_t threshold);

  std::uint32_t threshold() const { return threshold_; }

  /// paper: vss-encrypt(m).
  VssCipher encrypt(BytesView payload, Rng& rng) const;

  /// paper: vss-partial-decrypt(c_m). Unseals the caller's share. Only the
  /// holder of `signer`'s key can produce a share that verifies against the
  /// commitment.
  VssShare partial_decrypt(const VssCipher& cipher, const Signer& signer) const;

  /// Checks a received share against the cipher's commitment for its owner.
  bool verify_share(const VssCipher& cipher, const VssShare& share) const;

  /// paper: vss-decrypt(c_m, {rho_m}). Combines >= threshold verified
  /// shares; returns nullopt if not enough valid shares or if the decrypted
  /// payload does not match the bound digest.
  std::optional<Bytes> decrypt(const VssCipher& cipher,
                               const std::vector<VssShare>& shares) const;

 private:
  Digest seal_key(const Signer& signer, const Digest& cipher_id) const;
  Digest share_commitment(const Digest& cipher_id, NodeId owner,
                          const ShamirShare& share) const;
  /// verify_share() against an already computed cipher id.
  bool share_matches(const VssCipher& cipher, const Digest& cipher_id,
                     const VssShare& share) const;

  const KeyRegistry* registry_;
  std::uint32_t n_;
  std::uint32_t threshold_;
};

}  // namespace lyra::crypto
