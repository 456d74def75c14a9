#include "wload/wapps.h"

#include <algorithm>
#include <cstring>

namespace nectar::wload {

namespace {
// Poll grain for server accept loops: long enough that an idle server is
// cheap, short enough that ctl.stop is honored promptly at teardown.
constexpr sim::Duration kAcceptPoll = sim::usec(200);
constexpr std::size_t kChunk = 32 * 1024;  // server body-send / echo chunk
}  // namespace

void put_text(mem::UserBuffer& b, std::size_t off, std::string_view s) {
  auto dst = b.view().subspan(off, s.size());
  std::memcpy(dst.data(), s.data(), s.size());
}

std::string text_of(const mem::UserBuffer& b, std::size_t off, std::size_t len) {
  auto src = b.view().subspan(off, len);
  return {reinterpret_cast<const char*>(src.data()), src.size()};
}

sim::Task<void> accept_loop(Shim& sh, std::uint16_t port, int backlog,
                            ServerCtl& ctl, std::function<void(int)> serve) {
  const int lfd = sh.wsocket();
  sh.wbind(lfd, port);
  sh.wlisten(lfd, backlog);
  WPollFd p{lfd, WPOLLIN, 0};
  while (!ctl.stop) {
    if (co_await sh.wpoll(&p, 1, kAcceptPoll) <= 0) continue;
    const int cfd = co_await sh.waccept(lfd);
    if (cfd < 0) continue;
    ++ctl.active;
    serve(cfd);
  }
  co_await sh.wclose(lfd);
  ctl.exited = true;
}

// --------------------------------------------------------------------- echo

namespace {
sim::Task<void> echo_conn(Shim& sh, int fd, EchoServerCtl& ctl) {
  mem::UserBuffer buf = sh.walloc(kChunk);
  for (;;) {
    const long n = co_await sh.wrecv(fd, buf.as_uio(0, kChunk));
    if (n <= 0) break;  // EOF or error: client is done
    ctl.bytes_in += static_cast<std::uint64_t>(n);
    const long w = co_await sh.wsend(fd, buf.as_uio(0, static_cast<std::size_t>(n)));
    if (w > 0) ctl.bytes_out += static_cast<std::uint64_t>(w);
    if (w < n) break;  // connection died mid-echo
  }
  co_await sh.wclose(fd);
  --ctl.active;
}
}  // namespace

sim::Task<void> echo_server(Shim& sh, std::uint16_t port, int backlog,
                            EchoServerCtl& ctl) {
  return accept_loop(sh, port, backlog, ctl, [&sh, &ctl](int fd) {
    ++ctl.conns;
    sim::spawn(echo_conn(sh, fd, ctl));
  });
}

sim::Task<void> echo_client(Shim& sh, net::IpAddr server, std::uint16_t port,
                            std::size_t msg_size, int rounds,
                            EchoClientResult& out) {
  const int fd = sh.wsocket();
  const int rc = co_await sh.wconnect(fd, server, port);
  if (rc < 0) {
    out.err = rc;
    co_await sh.wclose(fd);
    co_return;
  }
  mem::UserBuffer msg = sh.walloc(msg_size);
  mem::UserBuffer back = sh.walloc(msg_size);
  bool alive = true;
  for (int r = 0; r < rounds && alive; ++r) {
    msg.fill_pattern(static_cast<std::uint32_t>(7000 + r));
    const long w = co_await sh.wsend(fd, msg.as_uio());
    if (w < 0 || static_cast<std::size_t>(w) != msg_size) {
      out.err = out.err == 0 ? static_cast<int>(w < 0 ? w : W_ENOTCONN) : out.err;
      break;
    }
    out.bytes_sent += static_cast<std::uint64_t>(w);
    std::size_t got = 0;
    while (got < msg_size) {
      const long n = co_await sh.wrecv(fd, back.as_uio(got, msg_size - got));
      if (n <= 0) {
        alive = false;
        break;
      }
      got += static_cast<std::size_t>(n);
    }
    out.bytes_echoed += got;
    if (got == msg_size &&
        back.verify_pattern(static_cast<std::uint32_t>(7000 + r), 0, msg_size, 0) !=
            SIZE_MAX) {
      ++out.mismatches;
    }
  }
  co_await sh.wclose(fd);
  out.ok = out.err == 0 && out.mismatches == 0 &&
           out.bytes_echoed == out.bytes_sent &&
           out.bytes_sent == static_cast<std::uint64_t>(rounds) * msg_size;
}

// ---------------------------------------------------------------- HTTP/1.0

namespace {
// Read from fd until the header terminator appears (or limit/EOF); returns
// the request text accumulated so far.
sim::Task<std::string> read_http_head(Shim& sh, int fd) {
  constexpr std::size_t kMaxHead = 1024;
  mem::UserBuffer buf = sh.walloc(kMaxHead);
  std::string head;
  while (head.size() < kMaxHead && head.find("\r\n\r\n") == std::string::npos) {
    const long n = co_await sh.wrecv(fd, buf.as_uio(0, kMaxHead - head.size()));
    if (n <= 0) break;
    head += text_of(buf, 0, static_cast<std::size_t>(n));
  }
  co_return head;
}

// Send `len` pattern bytes (seed) in kChunk pieces; returns bytes written.
sim::Task<std::uint64_t> send_pattern_body(Shim& sh, int fd, std::uint32_t seed,
                                           std::uint64_t len) {
  if (len == 0) co_return 0;
  mem::UserBuffer buf = sh.walloc(std::min<std::uint64_t>(len, kChunk));
  std::uint64_t sent = 0;
  while (sent < len) {
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, len - sent));
    // Pattern is position-dependent across the whole body, so the receiver
    // can verify stream order, not just per-chunk content.
    auto v = buf.view();
    for (std::size_t i = 0; i < take; ++i)
      v[i] = mem::UserBuffer::pattern_byte(seed, static_cast<std::size_t>(sent) + i);
    const long w = co_await sh.wsend(fd, buf.as_uio(0, take));
    if (w <= 0) break;
    sent += static_cast<std::uint64_t>(w);
    if (static_cast<std::size_t>(w) < take) break;
  }
  co_return sent;
}

sim::Task<void> http_conn(Shim& sh, int fd,
                          const std::vector<std::size_t>& sizes,
                          HttpServerCtl& ctl) {
  const std::string head = co_await read_http_head(sh, fd);
  ++ctl.requests;
  // Parse "GET /f<i> HTTP/1.0"; anything else is a 404.
  long file = -1;
  if (head.rfind("GET /f", 0) == 0) {
    const std::size_t sp = head.find(' ', 4);
    if (sp != std::string::npos) {
      const std::string num = head.substr(6, sp - 6);
      if (!num.empty() &&
          std::all_of(num.begin(), num.end(),
                      [](char c) { return c >= '0' && c <= '9'; })) {
        file = std::stol(num);
      }
    }
  }
  const bool found = file >= 0 && static_cast<std::size_t>(file) < sizes.size();
  const std::uint64_t body = found ? sizes[static_cast<std::size_t>(file)] : 0;
  std::string resp = found ? "HTTP/1.0 200 OK\r\n" : "HTTP/1.0 404 Not Found\r\n";
  resp += "Content-Length: " + std::to_string(body) + "\r\n\r\n";
  mem::UserBuffer hdr = sh.walloc(resp.size());
  put_text(hdr, 0, resp);
  if (co_await sh.wsend(fd, hdr.as_uio()) ==
      static_cast<long>(resp.size())) {
    if (found) {
      ++ctl.responses_200;
      ctl.body_bytes_out += co_await send_pattern_body(
          sh, fd, static_cast<std::uint32_t>(100 + file), body);
    } else {
      ++ctl.responses_404;
    }
  }
  co_await sh.wclose(fd);
  --ctl.active;
}
}  // namespace

sim::Task<void> http_server(Shim& sh, std::uint16_t port, int backlog,
                            std::vector<std::size_t> file_sizes,
                            HttpServerCtl& ctl) {
  return accept_loop(sh, port, backlog, ctl,
                     [&sh, &ctl, sizes = std::move(file_sizes)](int fd) {
                       sim::spawn(http_conn(sh, fd, sizes, ctl));
                     });
}

sim::Task<void> http_fetch(Shim& sh, net::IpAddr server, std::uint16_t port,
                           const std::vector<std::string>& paths,
                           HttpFetchResult& out) {
  mem::UserBuffer buf = sh.walloc(kChunk);
  for (const std::string& path : paths) {
    ++out.requests;
    const int fd = sh.wsocket();
    const int rc = co_await sh.wconnect(fd, server, port);
    if (rc < 0) {
      ++out.errs;
      co_await sh.wclose(fd);
      continue;
    }
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    mem::UserBuffer reqb = sh.walloc(req.size());
    put_text(reqb, 0, req);
    co_await sh.wsend(fd, reqb.as_uio());

    // Read to EOF (HTTP/1.0: server closes after the response).
    std::string head;
    bool in_head = true;
    std::uint64_t body_seen = 0;
    std::uint64_t body_bad = 0;
    // Body pattern seed for "/f<i>"; verified only for well-formed paths.
    long file = -1;
    if (path.rfind("/f", 0) == 0) {
      const std::string num = path.substr(2);
      if (!num.empty() && std::all_of(num.begin(), num.end(), [](char c) {
            return c >= '0' && c <= '9';
          })) {
        file = std::stol(num);
      }
    }
    for (;;) {
      const long n = co_await sh.wrecv(fd, buf.as_uio(0, kChunk));
      if (n <= 0) break;
      std::size_t body_off = 0;
      if (in_head) {
        head += text_of(buf, 0, static_cast<std::size_t>(n));
        const std::size_t end = head.find("\r\n\r\n");
        if (end == std::string::npos) continue;
        in_head = false;
        // Bytes past the terminator in this chunk already belong to the body.
        const std::size_t head_len = end + 4;
        const std::size_t prior = head.size() - static_cast<std::size_t>(n);
        body_off = head_len > prior ? head_len - prior : 0;
        head.resize(head_len);
      }
      const std::size_t body_n = static_cast<std::size_t>(n) - body_off;
      if (file >= 0) {
        auto v = buf.view().subspan(body_off, body_n);
        for (std::size_t i = 0; i < body_n; ++i) {
          if (v[i] != mem::UserBuffer::pattern_byte(
                          static_cast<std::uint32_t>(100 + file),
                          static_cast<std::size_t>(body_seen) + i)) {
            ++body_bad;
          }
        }
      }
      body_seen += body_n;
    }
    co_await sh.wclose(fd);

    // Parse the status line and Content-Length.
    bool ok200 = head.rfind("HTTP/1.0 200", 0) == 0;
    bool ok404 = head.rfind("HTTP/1.0 404", 0) == 0;
    std::uint64_t clen = 0;
    const std::size_t cl = head.find("Content-Length: ");
    if (cl != std::string::npos) {
      clen = std::stoull(head.substr(cl + 16));
    }
    if (ok200) ++out.ok_200;
    else if (ok404) ++out.not_found;
    else ++out.errs;
    out.content_length_sum += clen;
    out.body_bytes += body_seen;
    out.body_errors += body_bad;
  }
}

// ---------------------------------------------------------------------- RPC

void encode_rpc_request(std::span<std::byte> dst16, const RpcRequest& r) noexcept {
  auto put32 = [&dst16](std::size_t off, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      dst16[off + static_cast<std::size_t>(i)] =
          static_cast<std::byte>((v >> (8 * i)) & 0xff);
  };
  put32(0, kRpcMagic);
  put32(4, r.id);
  for (int i = 0; i < 8; ++i)
    dst16[8 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((r.resp_len >> (8 * i)) & 0xff);
}

bool decode_rpc_request(std::span<const std::byte> src, RpcRequest& out) noexcept {
  if (src.size() < kRpcReqLen) return false;
  auto get32 = [&src](std::size_t off) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(src[off + static_cast<std::size_t>(i)])
           << (8 * i);
    return v;
  };
  if (get32(0) != kRpcMagic) return false;
  out.id = get32(4);
  out.resp_len = 0;
  for (int i = 0; i < 8; ++i)
    out.resp_len |= static_cast<std::uint64_t>(src[8 + static_cast<std::size_t>(i)])
                    << (8 * i);
  return true;
}

namespace {
sim::Task<void> rpc_conn(Shim& sh, int fd, RpcServerCtl& ctl) {
  mem::UserBuffer req = sh.walloc(kRpcReqLen);
  std::size_t got = 0;
  while (got < kRpcReqLen) {
    const long n = co_await sh.wrecv(fd, req.as_uio(got, kRpcReqLen - got));
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  RpcRequest r;
  if (got == kRpcReqLen && decode_rpc_request(req.view(), r)) {
    ++ctl.calls;
    std::uint64_t len = r.resp_len;
    if (ctl.max_resp_bytes > 0) len = std::min(len, ctl.max_resp_bytes);
    ctl.bytes_out += co_await send_pattern_body(sh, fd, r.id, len);
  } else {
    ++ctl.bad_requests;
  }
  co_await sh.wclose(fd);
  --ctl.active;
}
}  // namespace

sim::Task<void> rpc_server(Shim& sh, std::uint16_t port, int backlog,
                           RpcServerCtl& ctl) {
  return accept_loop(sh, port, backlog, ctl, [&sh, &ctl](int fd) {
    ++ctl.conns;
    sim::spawn(rpc_conn(sh, fd, ctl));
  });
}

sim::Task<void> rpc_fanout(Shim& sh, const std::vector<RpcCall>& calls,
                           RpcFanoutResult& out) {
  struct Pending {
    int fd = -1;
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    sim::Time issued_at = 0;
  };
  std::vector<Pending> pend;
  pend.reserve(calls.size());
  mem::UserBuffer req = sh.walloc(kRpcReqLen);

  // Phase 1: open every connection and fire its request.
  for (std::size_t k = 0; k < calls.size(); ++k) {
    const int fd = sh.wsocket();
    const int rc = co_await sh.wconnect(fd, calls[k].addr, calls[k].port);
    if (rc < 0) {
      ++out.errs;
      co_await sh.wclose(fd);
      continue;
    }
    encode_rpc_request(req.view(),
                       RpcRequest{static_cast<std::uint32_t>(k), calls[k].resp_len});
    const sim::Time t0 = sh.sim().now();
    if (co_await sh.wsend(fd, req.as_uio()) != static_cast<long>(kRpcReqLen)) {
      ++out.errs;
      co_await sh.wclose(fd);
      continue;
    }
    ++out.issued;
    pend.push_back(Pending{fd, calls[k].resp_len, 0, t0});
  }

  // Phase 2: one wpoll loop multiplexes all outstanding responses.
  mem::UserBuffer buf = sh.walloc(kChunk);
  std::vector<WPollFd> pfds;
  while (!pend.empty()) {
    pfds.clear();
    for (const Pending& p : pend) pfds.push_back(WPollFd{p.fd, WPOLLIN, 0});
    co_await sh.wpoll(pfds.data(), pfds.size(), sim::msec(50));
    for (std::size_t i = 0; i < pend.size();) {
      if ((pfds[i].revents & (WPOLLIN | WPOLLHUP | WPOLLNVAL)) == 0) {
        ++i;
        continue;
      }
      Pending& p = pend[i];
      const long n = co_await sh.wrecv(p.fd, buf.as_uio(0, kChunk));
      if (n > 0) {
        p.got += static_cast<std::uint64_t>(n);
        out.bytes_received += static_cast<std::uint64_t>(n);
        ++i;
        continue;
      }
      // EOF: the server closed after the full response (or died short).
      if (p.got == p.want) ++out.completed;
      else ++out.errs;
      out.max_latency = std::max(out.max_latency, sh.sim().now() - p.issued_at);
      co_await sh.wclose(p.fd);
      // Order of the remaining fds is preserved (erase, not swap-pop) so the
      // result is independent of completion interleaving details.
      pend.erase(pend.begin() + static_cast<std::ptrdiff_t>(i));
      pfds.erase(pfds.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
}

}  // namespace nectar::wload
