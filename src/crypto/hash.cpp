#include "crypto/hash.hpp"

#include <cstring>

#include "support/hex.hpp"

namespace lyra::crypto {

namespace {
/// Fields up to this size travel with their length prefix in one update.
constexpr std::size_t kInlineField = 56;

void add_len_prefixed(Sha256& h, const void* data, std::uint64_t len) {
  std::uint8_t buf[8 + kInlineField];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  if (len <= kInlineField) {
    if (len > 0) std::memcpy(buf + 8, data, static_cast<std::size_t>(len));
    h.update(buf, 8 + static_cast<std::size_t>(len));
    return;
  }
  h.update(buf, 8);
  h.update(data, static_cast<std::size_t>(len));
}
}  // namespace

Hasher& Hasher::add(BytesView bytes) {
  add_len_prefixed(inner_, bytes.data(), bytes.size());
  return *this;
}

Hasher& Hasher::add(const Digest& d) {
  add_len_prefixed(inner_, d.data(), d.size());
  return *this;
}

Hasher& Hasher::add_u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  add_len_prefixed(inner_, b, sizeof b);
  return *this;
}

Hasher& Hasher::add_i64(std::int64_t v) {
  return add_u64(static_cast<std::uint64_t>(v));
}

Hasher& Hasher::add_u32(std::uint32_t v) {
  return add_u64(static_cast<std::uint64_t>(v));
}

Hasher& Hasher::add_str(std::string_view s) {
  add_len_prefixed(inner_, s.data(), s.size());
  return *this;
}

Digest Hasher::digest() { return inner_.finalize(); }

std::string digest_hex(const Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

std::string digest_short(const Digest& d) {
  return digest_hex(d).substr(0, 8);
}

}  // namespace lyra::crypto
