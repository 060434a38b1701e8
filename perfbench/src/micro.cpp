#include "micro.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "census.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/vss.hpp"
#include "lyra/messages.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "storage/disk.hpp"
#include "storage/journal.hpp"

namespace perfbench {

namespace {

using namespace lyra;

constexpr int kBlocks = 5;  // each result is the median over this many

/// Median per-call time, in ns, of `reps` calls of `body`, measured in
/// kBlocks blocks under one span.
template <class Body>
double time_per_call(SpanLog& log, const char* name, std::size_t reps,
                     Body&& body) {
  Scoped span(&log, name);
  std::vector<double> per_call;
  for (int b = 0; b < kBlocks; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < reps; ++i) body(i);
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(reps));
  }
  return median(per_call);
}

/// Consensus-process stand-in that drops what it receives.
class Sink final : public sim::Process {
 public:
  using Process::Process;

 protected:
  void on_message(const sim::Envelope&) override {}
};

struct Blob final : sim::Payload {
  const char* name() const override { return "blob"; }
  std::size_t wire_size() const override { return 256; }
};

volatile std::uint8_t g_sink;  // keeps results observable

}  // namespace

std::map<std::string, double> run_microbenchmarks(const MicroSizes& sizes,
                                                  SpanLog& log) {
  std::map<std::string, double> out;
  Scoped all(&log, "micro");

  // --- crypto ---
  Bytes batch(sizes.batch_bytes);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  const std::size_t sha_reps = std::max<std::size_t>(
      1, (std::size_t{4} << 20) / std::max<std::size_t>(batch.size(), 1));
  const double sha_ns = time_per_call(log, "micro.sha256", sha_reps,
                                      [&](std::size_t) {
    g_sink = crypto::Sha256::hash(batch)[0];
  });
  out["crypto.sha256_ns_per_kb"] =
      sha_ns / (static_cast<double>(batch.size()) / 1024.0);

  Rng rng(7);
  const std::size_t threshold = 2 * sizes.f + 1;
  crypto::KeyRegistry registry(sizes.n, threshold, rng);
  const crypto::Signer signer = registry.signer_for(0);
  const Bytes message(32, 0x5a);
  const crypto::Signature sig = signer.sign(message);
  out["crypto.sign_ns"] = time_per_call(log, "micro.sign", 20000,
                                        [&](std::size_t) {
    g_sink = signer.sign(message).mac[0];
  });
  out["crypto.verify_ns"] = time_per_call(log, "micro.verify", 20000,
                                          [&](std::size_t) {
    g_sink = registry.verify(message, sig, 0) ? 1 : 0;
  });

  const crypto::Vss vss(&registry, static_cast<std::uint32_t>(sizes.n),
                        static_cast<std::uint32_t>(threshold));
  out["crypto.vss_encrypt_us"] =
      time_per_call(log, "micro.vss_encrypt", 40, [&](std::size_t) {
        g_sink = vss.encrypt(batch, rng).ciphertext.size() > 0 ? 1 : 0;
      }) / 1000.0;
  const crypto::VssCipher cipher = vss.encrypt(batch, rng);
  std::vector<crypto::VssShare> shares;
  for (NodeId i = 0; i < threshold; ++i) {
    shares.push_back(vss.partial_decrypt(cipher, registry.signer_for(i)));
  }
  out["crypto.vss_decrypt_us"] =
      time_per_call(log, "micro.vss_decrypt", 40, [&](std::size_t) {
        g_sink = vss.decrypt(cipher, shares).has_value() ? 1 : 0;
      }) / 1000.0;

  // --- network fan-out at this n; deliveries are drained untimed ---
  {
    sim::Simulation sim(1);
    net::Network network(&sim, net::three_continents(sizes.n)
                                   .make_latency_model(),
                         sizes.n);
    std::vector<std::unique_ptr<Sink>> sinks;
    for (NodeId i = 0; i < sizes.n; ++i) {
      sinks.push_back(std::make_unique<Sink>(&sim, &network, i));
      network.attach(sinks.back().get());
    }
    const sim::PayloadPtr blob = std::make_shared<Blob>();
    const std::size_t rounds = 200;
    std::vector<double> unicast;
    std::vector<double> fanout;
    Scoped span(&log, "micro.net_send");
    for (int b = 0; b < kBlocks; ++b) {
      std::int64_t t0 = now_ns();
      for (std::size_t r = 0; r < rounds; ++r) {
        for (NodeId to = 0; to < sizes.n; ++to) {
          network.send(static_cast<NodeId>(r % sizes.n), to, blob);
        }
      }
      unicast.push_back(static_cast<double>(now_ns() - t0) /
                        static_cast<double>(rounds * sizes.n));
      sim.run_all();
      t0 = now_ns();
      for (std::size_t r = 0; r < rounds; ++r) {
        network.send_all(static_cast<NodeId>(r % sizes.n), blob);
      }
      fanout.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(rounds));
      sim.run_all();
    }
    out["net.send_ns"] = median(unicast);
    out["net.send_all_ns"] = median(fanout);
  }

  // --- storage: one WAL append per committed entry ---
  {
    storage::MemDisk disk;
    storage::DurableJournal journal(&disk);
    core::AcceptedEntry entry;
    std::uint64_t seq = 0;
    out["storage.append_us"] =
        time_per_call(log, "micro.journal_append", 20000, [&](std::size_t) {
          entry.seq = static_cast<SeqNum>(++seq);
          entry.cipher_id[0] = static_cast<std::uint8_t>(seq);
          journal.committed(entry, 800);
        }) / 1000.0;
  }
  return out;
}

}  // namespace perfbench
