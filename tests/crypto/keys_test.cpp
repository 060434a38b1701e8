#include "crypto/keys.hpp"

#include <gtest/gtest.h>

namespace lyra::crypto {
namespace {

class KeysTest : public ::testing::Test {
 protected:
  KeysTest() : rng_(101), registry_(7, 5, rng_) {}  // n=7, f=2, 2f+1=5

  Rng rng_;
  KeyRegistry registry_;
};

TEST_F(KeysTest, SignVerifyRoundTrip) {
  const Bytes msg = to_bytes("tx-payload");
  const Signer signer = registry_.signer_for(3);
  const Signature sig = signer.sign(msg);
  EXPECT_TRUE(registry_.verify(msg, sig, 3));
}

TEST_F(KeysTest, VerifyRejectsWrongSigner) {
  const Bytes msg = to_bytes("tx-payload");
  const Signature sig = registry_.signer_for(3).sign(msg);
  EXPECT_FALSE(registry_.verify(msg, sig, 4));
}

TEST_F(KeysTest, VerifyRejectsTamperedMessage) {
  const Signature sig = registry_.signer_for(0).sign(to_bytes("original"));
  EXPECT_FALSE(registry_.verify(to_bytes("tampered"), sig, 0));
}

TEST_F(KeysTest, VerifyRejectsForgedClaim) {
  // A Byzantine process relabeling its own signature as another's fails.
  Signature sig = registry_.signer_for(1).sign(to_bytes("m"));
  sig.signer = 2;
  EXPECT_FALSE(registry_.verify(to_bytes("m"), sig, 2));
}

TEST_F(KeysTest, ShareSignVerifyRoundTrip) {
  const Bytes msg = to_bytes("value");
  const SigShare share = registry_.signer_for(6).share_sign(msg);
  EXPECT_TRUE(registry_.share_verify(msg, share, 6));
  EXPECT_FALSE(registry_.share_verify(msg, share, 5));
}

TEST_F(KeysTest, ShareAndSignatureDomainsAreSeparated) {
  // share-sign(m) must not validate as private-sign(m).
  const Bytes msg = to_bytes("value");
  const SigShare share = registry_.signer_for(2).share_sign(msg);
  const Signature as_sig{share.signer, share.mac};
  EXPECT_FALSE(registry_.verify(msg, as_sig, 2));
}

TEST_F(KeysTest, CombineNeedsThresholdShares) {
  const Bytes msg = to_bytes("decide-1");
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 4; ++i) {
    shares.push_back(registry_.signer_for(i).share_sign(msg));
  }
  EXPECT_FALSE(registry_.share_combine(msg, shares).has_value());
  shares.push_back(registry_.signer_for(4).share_sign(msg));
  EXPECT_TRUE(registry_.share_combine(msg, shares).has_value());
}

TEST_F(KeysTest, CombineIgnoresDuplicatesAndInvalid) {
  const Bytes msg = to_bytes("decide-1");
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 5; ++i) {
    shares.push_back(registry_.signer_for(i).share_sign(msg));
  }
  // Duplicate of share 0 and one corrupted share must not help or hurt.
  shares.push_back(shares[0]);
  SigShare bad = registry_.signer_for(5).share_sign(to_bytes("other"));
  shares.push_back(bad);
  const auto combined = registry_.share_combine(msg, shares);
  ASSERT_TRUE(combined.has_value());
  EXPECT_EQ(combined->shares.size(), 5u);
  EXPECT_TRUE(registry_.threshold_verify(*combined, msg));
}

TEST_F(KeysTest, CombineRejectsDuplicatesOnlyQuorum) {
  const Bytes msg = to_bytes("decide-1");
  std::vector<SigShare> shares(5, registry_.signer_for(0).share_sign(msg));
  EXPECT_FALSE(registry_.share_combine(msg, shares).has_value());
}

TEST_F(KeysTest, ThresholdVerifyRejectsWrongMessage) {
  const Bytes msg = to_bytes("decide-1");
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 5; ++i) {
    shares.push_back(registry_.signer_for(i).share_sign(msg));
  }
  const auto combined = registry_.share_combine(msg, shares);
  ASSERT_TRUE(combined.has_value());
  EXPECT_FALSE(registry_.threshold_verify(*combined, to_bytes("decide-0")));
}

TEST_F(KeysTest, ThresholdVerifyRejectsDuplicatedShares) {
  const Bytes msg = to_bytes("decide-1");
  std::vector<SigShare> shares;
  for (NodeId i = 0; i < 5; ++i) {
    shares.push_back(registry_.signer_for(i).share_sign(msg));
  }
  auto combined = registry_.share_combine(msg, shares);
  ASSERT_TRUE(combined.has_value());
  combined->shares[4] = combined->shares[0];  // forged proof
  EXPECT_FALSE(registry_.threshold_verify(*combined, msg));
}

TEST_F(KeysTest, DeriveSecretIsStablePerContext) {
  const Signer s = registry_.signer_for(1);
  const Bytes ctx1 = to_bytes("cipher-1");
  const Bytes ctx2 = to_bytes("cipher-2");
  EXPECT_EQ(s.derive_secret(ctx1), s.derive_secret(ctx1));
  EXPECT_NE(s.derive_secret(ctx1), s.derive_secret(ctx2));
  EXPECT_NE(s.derive_secret(ctx1), registry_.signer_for(2).derive_secret(ctx1));
}

// Pinned MACs for seed 101: any change to key derivation, domain tagging
// or the HMAC construction shows up here before it moves a golden run.
TEST_F(KeysTest, MacsArePinned) {
  const Bytes msg = to_bytes("tx-payload");
  const Signer s = registry_.signer_for(3);
  EXPECT_EQ(digest_hex(s.sign(msg).mac),
            "c4c908567bb4cdc75f95f5d56014b5927180f38180468b32651cb24c938b9512");
  EXPECT_EQ(digest_hex(s.share_sign(msg).mac),
            "fef570635f3145b645e2fd98ced2f3600f8711d5b4a8f338651643fa930f11e8");
  EXPECT_EQ(digest_hex(s.derive_secret(msg)),
            "9034904d156fc292436b112f80c352c5893858effc391a9f8adbecb95c29c9d7");
  Bytes long_msg(200);  // spans several blocks of the inner hash
  for (std::size_t i = 0; i < long_msg.size(); ++i) {
    long_msg[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(digest_hex(registry_.signer_for(0).sign(long_msg).mac),
            "7ebcc2c06b7f5eca5d1cb9ec1160977567846914b457edead5f65a058c8046e3");
  EXPECT_EQ(digest_hex(registry_.signer_for(6).sign(BytesView{}).mac),
            "c591435497e554fbef200f1b61bea5ca05c703a6b6716e975ad702590d2017c8");
}

}  // namespace
}  // namespace lyra::crypto
