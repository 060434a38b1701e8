#include "crypto/vss.hpp"

#include "crypto/stream_cipher.hpp"
#include "support/assert.hpp"

namespace lyra::crypto {

Digest VssCipher::cipher_id() const {
  return Hasher().add_str("vss-cipher").add(ciphertext).add(payload_digest)
      .digest();
}

Vss::Vss(const KeyRegistry* registry, std::uint32_t n, std::uint32_t threshold)
    : registry_(registry), n_(n), threshold_(threshold) {
  LYRA_ASSERT(registry != nullptr, "VSS needs a key registry");
  LYRA_ASSERT(threshold > 0 && threshold <= n, "threshold must be in [1, n]");
  LYRA_ASSERT(n <= registry->size(), "more shareholders than keys");
}

Digest Vss::seal_key(const Signer& signer, const Digest& cipher_id) const {
  Bytes context;
  append(context, BytesView(cipher_id.data(), cipher_id.size()));
  return signer.derive_secret(context);
}

Digest Vss::share_commitment(const Digest& cipher_id, NodeId owner,
                             const ShamirShare& share) const {
  return Hasher()
      .add_str("vss-share")
      .add(cipher_id)
      .add_u32(owner)
      .add_u32(share.x)
      .add(share.y)
      .digest();
}

VssCipher Vss::encrypt(BytesView payload, Rng& rng) const {
  Digest key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());

  VssCipher cipher;
  cipher.ciphertext = xor_keystream(key, payload);
  cipher.payload_digest =
      Hasher().add_str("vss-payload").add(payload).digest();
  const Digest id = cipher.cipher_id();

  const auto shares =
      Shamir::split(BytesView(key.data(), key.size()), n_, threshold_, rng);
  cipher.sealed_shares.resize(n_);
  cipher.share_commitments.resize(n_);
  for (std::uint32_t i = 0; i < n_; ++i) {
    cipher.share_commitments[i] = share_commitment(id, i, shares[i]);
    const Digest seal = seal_key(registry_->signer_for(i), id);
    cipher.sealed_shares[i] = xor_keystream(seal, shares[i].y);
  }
  return cipher;
}

VssShare Vss::partial_decrypt(const VssCipher& cipher,
                              const Signer& signer) const {
  LYRA_ASSERT(signer.id() < cipher.sealed_shares.size(),
              "no share for this process in the cipher");
  const Digest id = cipher.cipher_id();
  const Digest seal = seal_key(signer, id);

  VssShare share;
  share.owner = signer.id();
  share.key_share.x = static_cast<std::uint8_t>(signer.id() + 1);
  share.key_share.y = xor_keystream(seal, cipher.sealed_shares[signer.id()]);
  return share;
}

bool Vss::verify_share(const VssCipher& cipher, const VssShare& share) const {
  return share_matches(cipher, cipher.cipher_id(), share);
}

bool Vss::share_matches(const VssCipher& cipher, const Digest& cipher_id,
                        const VssShare& share) const {
  if (share.owner >= cipher.share_commitments.size()) return false;
  if (share.key_share.x != static_cast<std::uint8_t>(share.owner + 1)) {
    return false;
  }
  return cipher.share_commitments[share.owner] ==
         share_commitment(cipher_id, share.owner, share.key_share);
}

std::optional<Bytes> Vss::decrypt(const VssCipher& cipher,
                                  const std::vector<VssShare>& shares) const {
  const Digest id = cipher.cipher_id();
  std::vector<ShamirShare> valid;
  for (const VssShare& s : shares) {
    if (share_matches(cipher, id, s)) valid.push_back(s.key_share);
    if (valid.size() == threshold_) break;
  }
  const auto key_bytes = Shamir::combine(valid, threshold_);
  if (!key_bytes || key_bytes->size() != 32) return std::nullopt;

  Digest key;
  std::copy(key_bytes->begin(), key_bytes->end(), key.begin());
  Bytes payload = xor_keystream(key, cipher.ciphertext);

  // A dealer that committed to a bogus digest produced an invalid cipher;
  // reconstruction proves it to every correct process.
  const Digest check = Hasher().add_str("vss-payload").add(payload).digest();
  if (check != cipher.payload_digest) return std::nullopt;
  return payload;
}

}  // namespace lyra::crypto
