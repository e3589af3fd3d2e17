#include "proto/session.hpp"

#include <memory>
#include <stdexcept>

#include "net/loss.hpp"
#include "proto/server.hpp"

namespace fountain::proto {

namespace {

// Translates one client's knobs into the engine policy it runs under.
engine::SubscriptionPolicy make_policy(const SimClientConfig& client,
                                       const ProtocolConfig& proto,
                                       std::uint64_t seed) {
  engine::SubscriptionPolicy policy;
  policy.initial_level = client.initial_level;
  policy.adaptive = !client.fixed_level;
  policy.initial_capacity = client.initial_capacity;
  policy.capacity_change_prob = client.capacity_change_prob;
  policy.congestion_extra_loss = client.congestion_extra_loss;
  policy.drop_loss_threshold = proto.drop_loss_threshold;
  policy.burst_probe_window = proto.burst_probe_window;
  policy.seed = seed;
  return policy;
}

}  // namespace

std::vector<engine::ReceiverReport> run_session(
    const fec::ErasureCode& code, const ProtocolConfig& proto,
    const std::vector<SimClientConfig>& clients, std::uint64_t seed,
    std::uint64_t max_rounds, std::size_t threads,
    const TopologySpec* network) {
  engine::SessionConfig engine_config;
  engine_config.horizon = max_rounds;
  engine_config.threads = threads;
  engine::Session session(code, engine_config);
  const auto server = std::make_shared<FountainServer>(proto, code, 0x5eed);
  const engine::SourceId source = session.add_source(server);

  // Edge queues are materialized once and shared by every PathLink, so
  // receivers whose root → leaf paths overlap couple through the same
  // fluid queues.
  std::vector<std::shared_ptr<engine::SharedBottleneck>> edge_queues;
  if (network != nullptr) {
    edge_queues = engine::make_edge_queues(network->topology);
  }

  for (std::size_t i = 0; i < clients.size(); ++i) {
    const SimClientConfig& client = clients[i];
    if (client.leaf >= 0 && network == nullptr) {
      throw std::invalid_argument(
          "run_session: client names a topology leaf but the session has "
          "no TopologySpec");
    }
    // Distinct, deterministic streams per receiver: one for the channel, one
    // for the adaptation draws.
    const std::uint64_t rx_seed = seed + 1000003ULL * (i + 1);
    engine::ReceiverSpec spec;
    spec.join = client.join;
    spec.policy = make_policy(client, proto, rx_seed ^ 0xada97a71c0ffee11ULL);
    if (client.loss_driven) {
      // The controller replaces the burst-probe machinery entirely.
      spec.policy.adaptive = false;
      spec.controller =
          std::make_unique<cc::LossDrivenPolicy>(client.loss_driven_config);
    }
    if (client.leaf >= 0) {
      // Real congestion comes from the shared queue(s); the synthetic
      // capacity-drift environment would double-count it.
      spec.policy.capacity_change_prob = 0.0;
      spec.policy.congestion_extra_loss = 0.0;
    }
    const engine::ReceiverId id = session.add_receiver(std::move(spec));
    if (client.leaf >= 0) {
      if (static_cast<std::size_t>(client.leaf) >=
          network->topology.node_count()) {
        throw std::out_of_range("run_session: client leaf is not a node");
      }
      session.subscribe(
          id, source,
          engine::make_path_link(network->topology, edge_queues,
                                 network->root,
                                 static_cast<engine::NodeId>(client.leaf),
                                 rx_seed, client.base_loss,
                                 network->model_latency));
    } else {
      session.subscribe(id, source,
                        std::make_unique<engine::LossLink>(
                            std::make_unique<net::BernoulliLoss>(
                                client.base_loss, rx_seed)));
    }
  }

  return session.run();
}

}  // namespace fountain::proto
