// The transport seam: one request/response envelope-exchange interface
// with two worlds behind it.
//
// Everything above this interface — benches, tests, client drivers —
// issues a typed RpcEnvelope at a ring key and receives the owner's
// kResponse envelope asynchronously.  Below it:
//
//   * SimTransport   — the existing deterministic simulator (dht::Network
//                      + SimScheduler), unchanged.  Routing, latency,
//                      fault injection, retries, and dead letters all
//                      behave exactly as in every golden and replay test;
//                      this backend stays the default everywhere.
//   * TcpTransport   — real peers serving length-prefixed frames over
//                      nonblocking loopback TCP sockets (src/transport/
//                      tcp.h), with the same capped-exponential retry
//                      backoff (dht::retryBackoffMs) and the same
//                      dead-letter ring (dht::DeadLetterRing) as the
//                      simulated fault layer.
//
// Both worlds use one ring: TcpTransport resolves owners on a
// dht::Network of the same peer count, and a broadcast reaches each
// peer at Network::firstVnodeOf in either.  The simulator predicts; the
// wire measures.  docs/COST_MODEL.md ("Real
// transport") spells out which quantities transfer between the two.
#pragma once

#include <cstddef>
#include <functional>

#include "dht/id.h"
#include "dht/rpc.h"

namespace mlight::transport {

/// Delivered with the owner's kResponse envelope.
using ReplyFn = std::function<void(const dht::RpcEnvelope& reply)>;

/// Invoked when a call exhausts its transmission attempts (the request
/// became a dead letter); mirrors dht::Network's RpcFailFn shape.
using FailFn =
    std::function<void(const dht::RpcEnvelope& env, std::size_t attempts)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Routes `env` to the peer responsible for `key` and invokes
  /// `onReply` with the owner's response, or `onFail` after the retry
  /// budget is spent.  Asynchronous: completions are delivered from
  /// drain() (and, for pipelined backends, from later call()s).
  virtual void call(dht::RingId key, dht::RpcEnvelope env, ReplyFn onReply,
                    FailFn onFail) = 0;

  /// Drives the backend until every outstanding call has completed or
  /// dead-lettered.
  virtual void drain() = 0;

  /// Calls that exhausted their retry budget (same ring type and
  /// semantics as Network::deadLetters()).
  virtual const dht::DeadLetterRing& deadLetters() const = 0;
};

}  // namespace mlight::transport
