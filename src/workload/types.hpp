#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/bytes.hpp"
#include "support/types.hpp"

namespace lyra::workload {

/// Adversarial role of a transaction in the economic front-running model.
/// Organic traffic comes from open-loop client pools; front/back pairs are
/// injected by the sandwich adversary around a targeted victim.
inline constexpr std::uint8_t kRoleOrganic = 0;
inline constexpr std::uint8_t kRoleFront = 1;
inline constexpr std::uint8_t kRoleBack = 2;

/// One open-loop transaction. Unlike the count-aggregated closed-loop
/// chunks, workload transactions are individually identified so the
/// mempool can admit/evict/deduplicate them and the economics evaluator
/// can match adversary orders to their victims in the committed sequence.
struct WorkloadTx {
  /// Globally unique: (origin process id << 40) | per-origin counter.
  /// Client pools and adversary nodes have disjoint process ids, so ids
  /// never collide across origins.
  std::uint64_t id = 0;
  /// Zipf-sampled hot-account key (contention model; not yet executed
  /// against an application state machine).
  std::uint64_t account = 0;
  /// Priority bid. The bounded mempool admits and carves by fee.
  std::uint64_t fee = 0;
  /// Economic value moved; what a sandwich adversary skims slippage from.
  std::uint64_t value = 0;
  /// 0 for organic traffic; the victim's tx id for front/back orders.
  std::uint64_t target_id = 0;
  /// Reply-to process for commit notifies and backpressure rejects.
  NodeId client = kNoNode;
  std::uint8_t role = kRoleOrganic;
  /// First submission time; retries keep it so latency spans all attempts.
  TimeNs submitted_at = 0;
};

/// Builds a tx id from an origin process id and that origin's counter.
inline std::uint64_t make_tx_id(NodeId origin, std::uint64_t counter) {
  return (static_cast<std::uint64_t>(origin) << 40) | (counter & ((1ull << 40) - 1));
}

inline NodeId tx_id_origin(std::uint64_t id) {
  return static_cast<NodeId>(id >> 40);
}

// --- batch payload codec -------------------------------------------------
//
// Open-loop batches serialize their transactions into the batch payload
// ("WLB1" magic + count + fixed-width records, little-endian) so that the
// committed ledger carries enough information for the economics evaluator
// — and so the Pompē cleartext leak exposes exactly this structure to the
// adversary, while Lyra's commit-reveal hides it until after ordering.

inline constexpr std::uint32_t kBatchMagic = 0x31424c57;  // "WLB1"
inline constexpr std::size_t kTxRecordBytes = 8 + 8 + 8 + 8 + 8 + 4 + 1 + 8;
inline constexpr std::size_t kBatchHeaderBytes = 8;

inline std::size_t encoded_batch_size(std::size_t count) {
  return kBatchHeaderBytes + count * kTxRecordBytes;
}

inline Bytes encode_batch(const std::vector<WorkloadTx>& txs) {
  Bytes out;
  out.reserve(encoded_batch_size(txs.size()));
  append_u32(out, kBatchMagic);
  append_u32(out, static_cast<std::uint32_t>(txs.size()));
  for (const WorkloadTx& tx : txs) {
    append_u64(out, tx.id);
    append_u64(out, tx.account);
    append_u64(out, tx.fee);
    append_u64(out, tx.value);
    append_u64(out, tx.target_id);
    append_u32(out, tx.client);
    out.push_back(tx.role);
    append_i64(out, tx.submitted_at);
  }
  return out;
}

namespace detail {
inline std::uint64_t read_u64(BytesView b, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
  }
  return v;
}
inline std::uint32_t read_u32(BytesView b, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(b[at + i]) << (8 * i);
  }
  return v;
}
}  // namespace detail

inline bool is_workload_batch(BytesView payload) {
  return payload.size() >= kBatchHeaderBytes &&
         detail::read_u32(payload, 0) == kBatchMagic;
}

/// Appends the decoded transactions to `out`. Returns false (leaving `out`
/// untouched) if the payload is not a well-formed workload batch. Growth
/// stays geometric, so decoding many batches into one vector (flattening a
/// ledger) reallocates O(log total) times, not once per batch.
inline bool decode_batch(BytesView payload, std::vector<WorkloadTx>* out) {
  if (!is_workload_batch(payload)) return false;
  const std::uint32_t count = detail::read_u32(payload, 4);
  if (payload.size() < encoded_batch_size(count)) return false;
  std::size_t at = kBatchHeaderBytes;
  const std::size_t need = out->size() + count;
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->capacity()));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    WorkloadTx tx;
    tx.id = detail::read_u64(payload, at);
    tx.account = detail::read_u64(payload, at + 8);
    tx.fee = detail::read_u64(payload, at + 16);
    tx.value = detail::read_u64(payload, at + 24);
    tx.target_id = detail::read_u64(payload, at + 32);
    tx.client = detail::read_u32(payload, at + 40);
    tx.role = payload[at + 44];
    tx.submitted_at =
        static_cast<TimeNs>(detail::read_u64(payload, at + 45));
    at += kTxRecordBytes;
    out->push_back(tx);
  }
  return true;
}

}  // namespace lyra::workload
