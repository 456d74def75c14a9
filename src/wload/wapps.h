// Small "real programs" over the wload shim: an echo server/client, an
// HTTP/1.0-style static file server + fetcher, and an RPC fan-out client.
//
// These are written the way their C originals would be — straight-line
// blocking calls, byte buffers, text headers — with co_await standing in for
// "this call blocks". They exist (a) as the proof that the shim carries real
// application logic over the simulated CAB datapath unmodified, and (b) as
// the building blocks of the user-population workload (population.h), whose
// request/response service is the RPC server below.
//
// Every program keeps exact byte counts so tests can assert conservation
// identities: what a client sent is what the server read, what the server
// wrote is what the client got back.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "wload/wsocket.h"

namespace nectar::wload {

// What a shim server shares with the driver that runs it.
struct ServerCtl {
  bool stop = false;       // set by the driver; the server exits at next poll
  bool exited = false;     // accept loop done and listener closed
  std::size_t active = 0;  // live per-connection handlers
};

// The accept loop of every shim server: listen on `port`, count each
// accepted fd as active and hand it to `serve` (which spawns its handler),
// and once ctl.stop is set close the listener and set ctl.exited.
sim::Task<void> accept_loop(Shim& sh, std::uint16_t port, int backlog,
                            ServerCtl& ctl, std::function<void(int)> serve);

// --------------------------------------------------------------------- echo

struct EchoServerCtl : ServerCtl {
  std::uint64_t conns = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

// Accept loop + one echo handler per connection; echoes until client EOF.
sim::Task<void> echo_server(Shim& sh, std::uint16_t port, int backlog,
                            EchoServerCtl& ctl);

struct EchoClientResult {
  bool ok = false;         // all rounds echoed back byte-exact
  int err = 0;             // first shim error (0 = none)
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_echoed = 0;
  std::uint64_t mismatches = 0;  // echoed bytes that differ from what was sent
};

// Connect once, then `rounds` times send a patterned message and read the
// echo back, verifying every byte.
sim::Task<void> echo_client(Shim& sh, net::IpAddr server, std::uint16_t port,
                            std::size_t msg_size, int rounds,
                            EchoClientResult& out);

// ---------------------------------------------------------------- HTTP/1.0

struct HttpServerCtl : ServerCtl {
  std::uint64_t requests = 0;
  std::uint64_t responses_200 = 0;
  std::uint64_t responses_404 = 0;
  std::uint64_t body_bytes_out = 0;
};

// Serves "/f0".."/fN-1" with the given body sizes (pattern seed 100+i),
// HTTP/1.0 semantics: one request per connection, Content-Length, close.
sim::Task<void> http_server(Shim& sh, std::uint16_t port, int backlog,
                            std::vector<std::size_t> file_sizes,
                            HttpServerCtl& ctl);

struct HttpFetchResult {
  std::size_t requests = 0;
  std::size_t ok_200 = 0;
  std::size_t not_found = 0;
  int errs = 0;  // connect/protocol failures
  std::uint64_t content_length_sum = 0;  // sum of parsed Content-Length
  std::uint64_t body_bytes = 0;          // body bytes actually received
  std::uint64_t body_errors = 0;         // body bytes not matching the pattern
  [[nodiscard]] bool conserved() const noexcept {
    return errs == 0 && body_bytes == content_length_sum && body_errors == 0;
  }
};

// Fetch each path over its own connection (HTTP/1.0), parsing status line
// and Content-Length and verifying the body arrives whole and byte-exact.
sim::Task<void> http_fetch(Shim& sh, net::IpAddr server, std::uint16_t port,
                           const std::vector<std::string>& paths,
                           HttpFetchResult& out);

// ---------------------------------------------------------------------- RPC

// Wire format shared by the RPC apps and the population workload: a 16-byte
// request — magic, caller-chosen id, and the response length the server must
// answer with (pattern seed = id) before closing.
inline constexpr std::uint32_t kRpcMagic = 0x57525043;  // "WRPC"
inline constexpr std::size_t kRpcReqLen = 16;

struct RpcRequest {
  std::uint32_t id = 0;
  std::uint64_t resp_len = 0;
};

void encode_rpc_request(std::span<std::byte> dst16, const RpcRequest& r) noexcept;
[[nodiscard]] bool decode_rpc_request(std::span<const std::byte> src,
                                      RpcRequest& out) noexcept;

struct RpcServerCtl : ServerCtl {
  std::uint64_t conns = 0;
  std::uint64_t calls = 0;       // well-formed requests served
  std::uint64_t bad_requests = 0;
  std::uint64_t bytes_out = 0;   // response bytes written
  // Cap on one response (guards against garbage resp_len); 0 = no cap.
  std::uint64_t max_resp_bytes = 0;
};

sim::Task<void> rpc_server(Shim& sh, std::uint16_t port, int backlog,
                           RpcServerCtl& ctl);

struct RpcCall {
  net::IpAddr addr = 0;
  std::uint16_t port = 0;
  std::uint64_t resp_len = 0;
};

struct RpcFanoutResult {
  std::size_t issued = 0;
  std::size_t completed = 0;  // full response received
  int errs = 0;               // connect failures / short responses
  std::uint64_t bytes_received = 0;
  sim::Duration max_latency = 0;  // slowest call, send -> EOF
  [[nodiscard]] bool conserved(std::uint64_t expected_total) const noexcept {
    return errs == 0 && bytes_received == expected_total;
  }
};

// Issue every call concurrently (one connection each), then multiplex all
// responses through a single wpoll loop — the shim's select-style idiom.
sim::Task<void> rpc_fanout(Shim& sh, const std::vector<RpcCall>& calls,
                           RpcFanoutResult& out);

// ------------------------------------------------------------------ helpers

// Copy text/bytes between shim-process buffers and host strings (the
// "memcpy" of shim programs; simulation cost is charged by wsend/wrecv).
void put_text(mem::UserBuffer& b, std::size_t off, std::string_view s);
[[nodiscard]] std::string text_of(const mem::UserBuffer& b, std::size_t off,
                                  std::size_t len);

}  // namespace nectar::wload
