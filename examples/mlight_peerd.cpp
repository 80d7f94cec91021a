// mlight_peerd — a standalone peer daemon serving the wire protocol.
//
// Runs N TcpPeerServer instances (one per physical peer of the ring) on
// consecutive loopback ports and blocks until stdin reaches EOF or the
// process receives SIGINT/SIGTERM.  Pair it with the concurrent client
// driver:
//
//   ./mlight_peerd --peers 8 --port-base 7500 &
//   ./extra_wire --peers 8 --connect 7500 --quick
//
// Each peer serves length-prefixed RpcEnvelope frames (kBatchPut / kGet /
// kVisit) from an in-memory WireStore.  Peer i is physical peer i of the
// ring; clients place records on a dht::Network of the same peer count
// (via wireRingKey), exactly as extra_wire does.  See README.md "Real
// transport quickstart".
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "transport/tcp.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void onSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::size_t peers = 8;
  std::uint16_t portBase = 7500;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::uint64_t {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return std::strtoull(argv[++i], nullptr, 10);
    };
    if (a == "--peers") {
      peers = next();
    } else if (a == "--port-base") {
      portBase = static_cast<std::uint16_t>(next());
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: %s [--peers N] [--port-base P]\n"
          "serves N wire-protocol peers on 127.0.0.1:P..P+N-1 until stdin\n"
          "closes or SIGINT/SIGTERM arrives\n",
          argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::vector<mlight::transport::TcpPeerServer> servers(peers);
  for (std::size_t i = 0; i < peers; ++i) {
    const auto want = static_cast<std::uint16_t>(portBase + i);
    const std::uint16_t got = servers[i].start(want);
    std::printf("peer %zu listening on 127.0.0.1:%u\n", i, got);
  }
  std::printf("ring up: %zu peers on ports %u..%u — ctrl-d or SIGINT to "
              "stop\n",
              peers, portBase,
              static_cast<unsigned>(portBase + peers - 1));
  std::fflush(stdout);

  // Block on stdin (EOF ends the daemon); poll so signals break us out.
  while (g_stop == 0) {
    pollfd pfd{STDIN_FILENO, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) continue;  // timeout or EINTR: re-check g_stop
    char buf[256];
    const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n <= 0) break;  // EOF or error: shut down
  }

  std::uint64_t frames = 0;
  for (auto& s : servers) {
    s.stop();
    frames += s.framesServed();
  }
  std::printf("ring down: served %llu frames\n",
              static_cast<unsigned long long>(frames));
  return 0;
}
