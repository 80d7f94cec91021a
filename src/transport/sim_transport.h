// Transport backend over the deterministic simulator.
//
// The existing dht::Network is used untouched: call() issues the request
// through Network::sendRpc (metered routing, latency, fault injection,
// retries), the owner-side delivery handler applies the envelope against
// that peer's WireStore, and the response travels back as its own
// kResponse envelope addressed to the client's home vnode.  Both legs
// are ordinary simulated RPCs, so every cost the simulator predicts for
// a wire workload — messages, hops, retries, dead letters, simulated
// milliseconds — comes out of the same machinery every golden pins.
//
// The client is co-located with physical peer 0 ("node:0"): its home
// vnode is that peer's first ring position (Network::firstVnodeOf, the
// same anchor broadcasts address), mirroring a loopback client process
// next to a local peer.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dht/network.h"
#include "store/wire_store.h"
#include "transport/transport.h"

namespace mlight::transport {

class SimTransport : public Transport {
 public:
  explicit SimTransport(std::size_t peerCount, std::size_t vnodesPerPeer = 1,
                        dht::LatencyModel latency = {})
      : net_(peerCount, /*seed=*/1, vnodesPerPeer, latency),
        stores_(peerCount),
        clientHome_(net_.firstVnodeOf(0)) {}

  void call(dht::RingId key, dht::RpcEnvelope env, ReplyFn onReply,
            FailFn onFail) override {
    env.from = clientHome_;
    net_.sendRpc(
        key, std::move(env),
        [this, onReply = std::move(onReply),
         onFail](const dht::RpcDelivery& d) {
          // Owner side: apply against the owning physical peer's store,
          // then ship the response back to the client's home vnode as a
          // simulated RPC of its own (addressing a vnode's exact ring id
          // routes precisely to it).
          store::WireStore& s = stores_[net_.physicalOf(d.route.owner)];
          dht::RpcEnvelope resp = s.handle(d.env);
          net_.sendRpc(
              clientHome_, std::move(resp),
              [onReply](const dht::RpcDelivery& back) {
                if (onReply) onReply(back.env);
              },
              onFail);
        },
        std::move(onFail));
  }

  void drain() override { net_.run(); }

  const dht::DeadLetterRing& deadLetters() const override {
    return net_.deadLetters();
  }

  /// The underlying simulator, e.g. to install a FaultModel or read the
  /// predicted cost meters.
  dht::Network& network() noexcept { return net_; }
  const dht::Network& network() const noexcept { return net_; }

  store::WireStore& storeOf(std::size_t peer) { return stores_.at(peer); }

 private:
  dht::Network net_;
  std::vector<store::WireStore> stores_;
  dht::RingId clientHome_;
};

}  // namespace mlight::transport
