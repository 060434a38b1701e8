#pragma once

#include <optional>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/hmac.hpp"
#include "support/bytes.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace lyra::crypto {

/// A signature under the paper's `private-sign` API.
///
/// Substitution note (see DESIGN.md): instead of elliptic-curve signatures we
/// use HMAC-SHA256 under a per-process secret held by the KeyRegistry, which
/// plays the role of the PKI that permissioned blockchains set up at genesis.
/// Verification recomputes the MAC with the claimed signer's secret. Within
/// the simulation this is unforgeable: processes (including Byzantine ones)
/// can only sign through their own Signer handle, which is bound to their
/// identity, and never see other processes' secrets. The *cost* of real
/// signatures is charged separately through CryptoCosts.
struct Signature {
  NodeId signer = kNoNode;
  Digest mac{};

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// A threshold-signature share (paper: `share-sign`).
struct SigShare {
  NodeId signer = kNoNode;
  Digest mac{};

  friend bool operator==(const SigShare&, const SigShare&) = default;
};

/// A combined (2f+1, n) threshold signature (paper: `share-combine`).
/// Carries the shares that formed it; `threshold_verify` recounts them.
struct ThresholdSig {
  Digest message_digest{};
  std::vector<SigShare> shares;
};

class Signer;

/// Holds the long-term key material of all processes and implements the
/// paper's cryptographic API (§II-B): private-sign / public-verify,
/// share-sign / share-verify / share-combine / share-threshold.
class KeyRegistry {
 public:
  /// Creates keys for `num_processes` processes. `threshold` is the number
  /// of shares required by share-combine; the paper uses 2f+1.
  KeyRegistry(std::size_t num_processes, std::size_t threshold, Rng& rng);

  std::size_t size() const { return keys_.size(); }
  std::size_t threshold() const { return threshold_; }

  /// Returns the signing handle for one process. Each process must only
  /// ever hold its own handle; this is the simulation's stand-in for
  /// private-key secrecy.
  Signer signer_for(NodeId id) const;

  /// paper: public-verify(m, sigma_m, j).
  bool verify(BytesView message, const Signature& sig, NodeId claimed) const;

  /// paper: share-verify(m, pi_m, j).
  bool share_verify(BytesView message, const SigShare& share,
                    NodeId claimed) const;

  /// paper: share-combine({pi_m}). Validates and deduplicates shares;
  /// returns nullopt if fewer than `threshold` distinct valid shares.
  std::optional<ThresholdSig> share_combine(
      BytesView message, const std::vector<SigShare>& shares) const;

  /// paper: share-threshold(Pi_m, m).
  bool threshold_verify(const ThresholdSig& sig, BytesView message) const;

 private:
  friend class Signer;

  Digest mac_for(NodeId id, BytesView message, std::string_view domain) const;

  std::vector<HmacKey> keys_;  // per-process secret, pads pre-absorbed
  std::size_t threshold_;
};

/// A process's signing capability. Move-only handle is unnecessary; it is
/// cheap and copyable, but protocol code treats it as private state.
class Signer {
 public:
  Signer(const KeyRegistry* registry, NodeId id)
      : registry_(registry), id_(id) {}

  NodeId id() const { return id_; }

  /// paper: private-sign(m).
  Signature sign(BytesView message) const;

  /// paper: share-sign(m).
  SigShare share_sign(BytesView message) const;

  /// Derives a secret key bound to (this process, context). Used by the VSS
  /// scheme to seal per-recipient shares (stand-in for encrypting a share
  /// under the recipient's public key).
  Digest derive_secret(BytesView context) const;

 private:
  const KeyRegistry* registry_;
  NodeId id_;
};

}  // namespace lyra::crypto
