// NIC egress serialization and FIFO-channel behaviour of the network
// substrate — the mechanisms behind the HotStuff leader bottleneck and the
// Commit protocol's in-order status application.

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace lyra::net {
namespace {

struct Blob final : sim::Payload {
  explicit Blob(std::size_t size) : size(size) {}
  std::size_t size;
  const char* name() const override { return "BLOB"; }
  std::size_t wire_size() const override { return size; }
};

class Sink final : public sim::Process {
 public:
  using sim::Process::Process;
  using sim::Process::broadcast;
  using sim::Process::send;
  std::vector<sim::Envelope> received;

 protected:
  void on_message(const sim::Envelope& env) override {
    received.push_back(env);
  }
};

class BandwidthTest : public ::testing::Test {
 protected:
  static constexpr double kBw = 1e6;  // 1 MB/s: 1 ms per KB

  BandwidthTest()
      : sim_(1), net_(&sim_, std::make_unique<UniformLatency>(ms(10)), 3) {
    net_.set_bandwidth(kBw);
    for (NodeId i = 0; i < 3; ++i) {
      nodes_.push_back(std::make_unique<Sink>(&sim_, &net_, i));
      net_.attach(nodes_.back().get());
    }
  }

  sim::Simulation sim_;
  Network net_;
  std::vector<std::unique_ptr<Sink>> nodes_;
};

TEST_F(BandwidthTest, SerializationDelaysDelivery) {
  nodes_[0]->send(1, std::make_shared<Blob>(1000));  // 1 ms to serialize
  sim_.run_all();
  ASSERT_EQ(nodes_[1]->received.size(), 1u);
  EXPECT_EQ(nodes_[1]->received[0].delivered_at, ms(11));
}

TEST_F(BandwidthTest, BackToBackSendsQueueOnTheNic) {
  nodes_[0]->send(1, std::make_shared<Blob>(1000));
  nodes_[0]->send(2, std::make_shared<Blob>(1000));  // queues behind
  sim_.run_all();
  EXPECT_EQ(nodes_[1]->received[0].delivered_at, ms(11));
  EXPECT_EQ(nodes_[2]->received[0].delivered_at, ms(12));
}

TEST_F(BandwidthTest, BroadcastFanOutIsUniformAcrossReceivers) {
  // send_all books the NIC once for the whole fan-out: every receiver
  // sees the same egress delay (3 copies x 1 ms = 3 ms).
  nodes_[0]->broadcast(std::make_shared<Blob>(1000));
  sim_.run_all();
  for (NodeId i = 0; i < 3; ++i) {
    ASSERT_EQ(nodes_[i]->received.size(), 1u) << "node " << i;
    const TimeNs latency = i == 0 ? us(50) : ms(10);
    EXPECT_EQ(nodes_[i]->received[0].delivered_at, ms(3) + latency)
        << "node " << i;
  }
}

TEST_F(BandwidthTest, NicBacklogReported) {
  nodes_[0]->send(1, std::make_shared<Blob>(5000));
  EXPECT_EQ(net_.nic_backlog(0), ms(5));
  EXPECT_EQ(net_.nic_backlog(1), 0);
  sim_.run_all();
  EXPECT_EQ(net_.nic_backlog(0), 0);
}

TEST_F(BandwidthTest, ZeroBandwidthDisablesTheModel) {
  net_.set_bandwidth(0.0);
  nodes_[0]->send(1, std::make_shared<Blob>(1'000'000));
  sim_.run_all();
  EXPECT_EQ(nodes_[1]->received[0].delivered_at, ms(10));
}

TEST_F(BandwidthTest, FifoChannelNeverReorders) {
  // 200 small messages on one channel with heavy jitter: arrival order
  // must match send order (TCP-like channels).
  sim::Simulation sim(3);
  Network net(&sim, std::make_unique<UniformLatency>(ms(10), 0.5), 2);
  Sink a(&sim, &net, 0);
  Sink b(&sim, &net, 1);
  net.attach(&a);
  net.attach(&b);
  for (std::size_t i = 0; i < 200; ++i) {
    a.send(1, std::make_shared<Blob>(64 + i));
  }
  sim.run_all();
  ASSERT_EQ(b.received.size(), 200u);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(sim::payload_as<Blob>(b.received[i])->size, 64 + i);
    if (i > 0) {
      EXPECT_GE(b.received[i].delivered_at, b.received[i - 1].delivered_at);
    }
  }
}

TEST_F(BandwidthTest, FifoFloorSurvivesSenderRestart) {
  // A crashed and restarted sender keeps its channels' FIFO floors: what
  // the new incarnation sends never overtakes what the old one still has
  // in flight on the same channel.
  sim::Simulation sim(5);
  Network net(&sim, std::make_unique<UniformLatency>(ms(10), 0.5), 2);
  Sink a(&sim, &net, 0);
  auto b = std::make_unique<Sink>(&sim, &net, 1);
  net.attach(&a);
  net.attach(b.get());
  for (std::size_t i = 0; i < 50; ++i) {
    b->send(0, std::make_shared<Blob>(64 + i));
  }
  net.detach(1);
  b = std::make_unique<Sink>(&sim, &net, 1);
  net.attach(b.get());
  for (std::size_t i = 50; i < 100; ++i) {
    b->send(0, std::make_shared<Blob>(64 + i));
  }
  sim.run_all();
  ASSERT_EQ(a.received.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(sim::payload_as<Blob>(a.received[i])->size, 64 + i);
  }
}

}  // namespace
}  // namespace lyra::net
