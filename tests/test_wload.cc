// Workload frontend: POSIX-style shim programs (echo, HTTP/1.0, RPC fan-out)
// over the simulated stack, the user-population generator, and pcap trace
// replay. The recurring assertion shape is a byte-conservation identity:
// what one side sent is exactly what the other side counted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/ttcp.h"
#include "core/multi_testbed.h"
#include "core/netstat.h"
#include "core/testbed.h"
#include "wload/population.h"
#include "wload/trace_replay.h"
#include "wload/wapps.h"

namespace nectar {
namespace {

// Advance simulated time until `ctl.exited && ctl.active == 0` (bounded).
template <typename Ctl>
void drain_server(core::Testbed& tb, Ctl& ctl) {
  for (int i = 0; i < 1000 && (!ctl.exited || ctl.active != 0); ++i)
    tb.sim.run_until(tb.sim.now() + sim::msec(1.0));
  EXPECT_TRUE(ctl.exited);
  EXPECT_EQ(ctl.active, 0u);
}

TEST(Wload, EchoConservation) {
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  wload::Shim sb(*tb.b);
  wload::EchoServerCtl ctl;
  sim::spawn(wload::echo_server(sb, 7, 4, ctl));

  wload::EchoClientResult res;
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    co_await wload::echo_client(sa, core::Testbed::kIpB, 7, 8 * 1024, 4, res);
    ctl.stop = true;
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, 60 * sim::kSecond));

  EXPECT_TRUE(res.ok) << wload::werr_name(res.err);
  EXPECT_EQ(res.bytes_sent, 4u * 8 * 1024);
  // The conservation identity, both ends: client sent == server read,
  // server wrote == client got back, and every byte matched the pattern.
  EXPECT_EQ(res.bytes_echoed, res.bytes_sent);
  EXPECT_EQ(res.mismatches, 0u);
  drain_server(tb, ctl);
  EXPECT_EQ(ctl.conns, 1u);
  EXPECT_EQ(ctl.bytes_in, res.bytes_sent);
  EXPECT_EQ(ctl.bytes_out, res.bytes_echoed);
  // Both shims released every descriptor.
  EXPECT_EQ(sa.open_fds(), 0u);
  EXPECT_EQ(sb.open_fds(), 0u);
}

TEST(Wload, HttpFetchConservation) {
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  wload::Shim sb(*tb.b);
  wload::HttpServerCtl ctl;
  const std::vector<std::size_t> sizes{1000, 200 * 1024, 0};
  sim::spawn(wload::http_server(sb, 80, 4, sizes, ctl));

  wload::HttpFetchResult res;
  const std::vector<std::string> paths{"/f0", "/f1", "/f2", "/missing"};
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    co_await wload::http_fetch(sa, core::Testbed::kIpB, 80, paths, res);
    ctl.stop = true;
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, 60 * sim::kSecond));

  EXPECT_EQ(res.requests, 4u);
  EXPECT_EQ(res.ok_200, 3u);  // /f2 is a 200 with an empty body
  EXPECT_EQ(res.not_found, 1u);
  EXPECT_TRUE(res.conserved());
  EXPECT_EQ(res.content_length_sum, 1000u + 200 * 1024 + 0);
  drain_server(tb, ctl);
  EXPECT_EQ(ctl.requests, 4u);
  EXPECT_EQ(ctl.responses_200, 3u);
  EXPECT_EQ(ctl.responses_404, 1u);
  EXPECT_EQ(ctl.body_bytes_out, res.body_bytes);
}

TEST(Wload, RpcFanoutConservation) {
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  wload::Shim sb(*tb.b);
  wload::RpcServerCtl ctl;
  sim::spawn(wload::rpc_server(sb, 8100, 8, ctl));

  std::vector<wload::RpcCall> calls;
  std::uint64_t expected = 0;
  for (int k = 0; k < 8; ++k) {
    const std::uint64_t len = 1024u << k;  // 1 KB .. 128 KB
    calls.push_back(wload::RpcCall{core::Testbed::kIpB, 8100, len});
    expected += len;
  }
  wload::RpcFanoutResult res;
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    co_await wload::rpc_fanout(sa, calls, res);
    ctl.stop = true;
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, 120 * sim::kSecond));

  EXPECT_EQ(res.issued, 8u);
  EXPECT_EQ(res.completed, 8u);
  EXPECT_TRUE(res.conserved(expected));
  EXPECT_GT(res.max_latency, 0);
  drain_server(tb, ctl);
  EXPECT_EQ(ctl.calls, 8u);
  EXPECT_EQ(ctl.bad_requests, 0u);
  EXPECT_EQ(ctl.bytes_out, expected);
}

TEST(Wload, WpollTimeoutAndBadFd) {
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    // A bad fd reports WPOLLNVAL immediately, without consuming the timeout.
    wload::WPollFd bad{42, wload::WPOLLIN, 0};
    const sim::Time t0 = tb.sim.now();
    EXPECT_EQ(co_await sa.wpoll(&bad, 1, sim::msec(10.0)), 1);
    EXPECT_EQ(bad.revents, wload::WPOLLNVAL);
    EXPECT_EQ(tb.sim.now(), t0);

    // An open-but-unconnected fd is never ready: the full timeout elapses.
    const int fd = sa.wsocket();
    EXPECT_GE(fd, 0);
    wload::WPollFd idle{fd, wload::WPOLLIN, 0};
    const sim::Time t1 = tb.sim.now();
    EXPECT_EQ(co_await sa.wpoll(&idle, 1, sim::msec(10.0)), 0);
    EXPECT_GE(tb.sim.now() - t1, sim::msec(10.0));
    EXPECT_EQ(sa.stats().poll_timeouts, 1u);
    co_await sa.wclose(fd);
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, sim::kSecond));
}

// The blocking waits against an oracle: wpoll as a loop of zero-timeout
// probes and kShimPollQuantum sleeps (the last one cut short at the
// deadline), and wclose's linger as a loop over Socket::tx_drained(). The
// blocking calls sleep between readiness changes, and must still return at
// exactly the simulated times the loops do.
sim::Task<int> grid_wpoll(wload::Shim& sh, wload::WPollFd* fds, std::size_t n,
                          sim::Duration timeout) {
  const sim::Time deadline = sh.sim().now() + timeout;
  for (;;) {
    const int r = co_await sh.wpoll(fds, n, 0);
    if (r > 0 || sh.sim().now() >= deadline) co_return r;
    co_await sim::delay(sh.sim(),
                        std::min(wload::kShimPollQuantum, deadline - sh.sim().now()));
  }
}

// Run until `finished` reaches `n`, then let the last FIN and ACK packets
// land so that teardown leaves no mbuf in flight.
void run_scenario(core::Testbed& tb, const int& finished, int n, sim::Duration limit) {
  EXPECT_TRUE(tb.run_until_done([&] { return finished == n; }, limit));
  tb.sim.run_until(tb.sim.now() + sim::kSecond);
}

sim::Task<int> poll_with(bool oracle, wload::Shim& sh, wload::WPollFd* fds,
                         std::size_t n, sim::Duration timeout) {
  if (oracle) co_return co_await grid_wpoll(sh, fds, n, timeout);
  co_return co_await sh.wpoll(fds, n, timeout);
}

// Every wpoll return as (time, result, revents) and every accept as
// (time, fd, 0), from an accept loop on host B with 130 us, 200 us and 1 ms
// timeouts while host A connects at staggered offsets.
std::vector<std::tuple<sim::Time, int, short>> accept_loop_log(bool oracle) {
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  wload::Shim sb(*tb.b);
  constexpr int kConns = 6;
  std::vector<std::tuple<sim::Time, int, short>> log;
  int finished = 0;
  auto server = [&]() -> sim::Task<void> {
    const int lfd = sb.wsocket();
    sb.wbind(lfd, 7000);
    sb.wlisten(lfd, 2);
    const sim::Duration timeouts[] = {sim::usec(130), sim::usec(200), sim::msec(1.0)};
    for (std::size_t i = 0, accepted = 0; accepted < kConns; ++i) {
      wload::WPollFd p{lfd, wload::WPOLLIN, 0};
      const int r = co_await poll_with(oracle, sb, &p, 1, timeouts[i % 3]);
      log.emplace_back(tb.sim.now(), r, p.revents);
      if (r <= 0) continue;
      const int cfd = co_await sb.waccept(lfd);
      log.emplace_back(tb.sim.now(), cfd, 0);
      ++accepted;
      co_await sb.wclose(cfd);
    }
    co_await sb.wclose(lfd);
    ++finished;
  };
  auto client = [&](sim::Duration start) -> sim::Task<void> {
    co_await sim::delay(tb.sim, start);
    const int fd = sa.wsocket();
    EXPECT_EQ(co_await sa.wconnect(fd, core::Testbed::kIpB, 7000), 0);
    co_await sa.wclose(fd);
    ++finished;
  };
  sim::spawn(server());
  for (int k = 0; k < kConns; ++k) sim::spawn(client(sim::usec(37 + 613 * k * k)));
  run_scenario(tb, finished, kConns + 1, 10 * sim::kSecond);
  return log;
}

TEST(Wload, WpollAcceptLoopMatchesGridOracle) {
  const auto oracle = accept_loop_log(true);
  const auto blocking = accept_loop_log(false);
  ASSERT_GT(oracle.size(), 12u);  // six accepts plus at least one timeout
  EXPECT_EQ(blocking, oracle);
}

// Host B polls an accepted stream for WPOLLIN with 130 us, 90 us and 1 ms
// timeouts while host A sends 16 bytes twice, then closes (WPOLLHUP).
std::vector<std::tuple<sim::Time, int, short>> timeout_log(bool oracle) {
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  wload::Shim sb(*tb.b);
  std::vector<std::tuple<sim::Time, int, short>> log;
  int finished = 0;
  auto server = [&]() -> sim::Task<void> {
    const int lfd = sb.wsocket();
    sb.wbind(lfd, 7001);
    sb.wlisten(lfd, 1);
    const int cfd = co_await sb.waccept(lfd);
    mem::UserBuffer buf = sb.walloc(64);
    const sim::Duration timeouts[] = {sim::usec(130), sim::usec(90), sim::msec(1.0)};
    for (std::size_t i = 0;; ++i) {
      wload::WPollFd p{cfd, wload::WPOLLIN, 0};
      const int r = co_await poll_with(oracle, sb, &p, 1, timeouts[i % 3]);
      log.emplace_back(tb.sim.now(), r, p.revents);
      if (r <= 0) continue;
      if (co_await sb.wrecv(cfd, buf.as_uio()) <= 0) break;
    }
    co_await sb.wclose(cfd);
    co_await sb.wclose(lfd);
    ++finished;
  };
  auto client = [&]() -> sim::Task<void> {
    const int fd = sa.wsocket();
    EXPECT_EQ(co_await sa.wconnect(fd, core::Testbed::kIpB, 7001), 0);
    mem::UserBuffer msg = sa.walloc(16);
    for (const double ms : {0.77, 2.9}) {
      co_await sim::delay(tb.sim, sim::msec(ms));
      EXPECT_EQ(co_await sa.wsend(fd, msg.as_uio()), 16);
    }
    co_await sim::delay(tb.sim, sim::msec(1.7));
    co_await sa.wclose(fd);
    ++finished;
  };
  sim::spawn(server());
  sim::spawn(client());
  run_scenario(tb, finished, 2, 10 * sim::kSecond);
  return log;
}

TEST(Wload, WpollTimeoutsMatchGridOracle) {
  const auto oracle = timeout_log(true);
  const auto blocking = timeout_log(false);
  const auto timeouts = std::count_if(oracle.begin(), oracle.end(),
                                      [](const auto& e) { return std::get<1>(e) == 0; });
  EXPECT_GT(timeouts, 5);
  EXPECT_EQ(blocking, oracle);
}

// Host A writes 2 MiB in one coroutine while another polls the same fd for
// WPOLLOUT with a 1 ms timeout (pausing 110 us after each ready return),
// and host B reads 8 KiB every 0.9 ms, so send space opens one ACK at a
// time. The writer's close ends the polling with WPOLLNVAL.
std::vector<std::tuple<sim::Time, int, short>> writable_log(bool oracle) {
  constexpr std::size_t kBytes = 2 * 1024 * 1024;  // 4x the send buffer
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  wload::Shim sb(*tb.b);
  std::vector<std::tuple<sim::Time, int, short>> log;
  int fd = -1;
  int finished = 0;
  auto writer = [&]() -> sim::Task<void> {
    fd = sa.wsocket();
    EXPECT_EQ(co_await sa.wconnect(fd, core::Testbed::kIpB, 7004), 0);
    mem::UserBuffer buf = sa.walloc(kBytes);
    EXPECT_EQ(co_await sa.wsend(fd, buf.as_uio()), static_cast<long>(kBytes));
    co_await sa.wclose(fd);
    ++finished;
  };
  auto poller = [&]() -> sim::Task<void> {
    for (;;) {
      wload::WPollFd p{fd, wload::WPOLLOUT, 0};
      const int r = co_await poll_with(oracle, sa, &p, 1, sim::msec(1.0));
      log.emplace_back(tb.sim.now(), r, p.revents);
      if (p.revents == wload::WPOLLNVAL) break;
      if (r > 0) co_await sim::delay(tb.sim, sim::usec(110));
    }
    ++finished;
  };
  auto reader = [&]() -> sim::Task<void> {
    const int lfd = sb.wsocket();
    sb.wbind(lfd, 7004);
    sb.wlisten(lfd, 1);
    const int cfd = co_await sb.waccept(lfd);
    mem::UserBuffer buf = sb.walloc(8 * 1024);
    while (co_await sb.wrecv(cfd, buf.as_uio()) > 0)
      co_await sim::delay(tb.sim, sim::msec(0.9));
    co_await sb.wclose(cfd);
    co_await sb.wclose(lfd);
    ++finished;
  };
  sim::spawn(reader());
  sim::spawn(writer());
  sim::spawn(poller());
  run_scenario(tb, finished, 3, 60 * sim::kSecond);
  return log;
}

TEST(Wload, WpollWritableMatchesGridOracle) {
  const auto oracle = writable_log(true);
  const auto blocking = writable_log(false);
  const auto writable = std::count_if(oracle.begin(), oracle.end(), [](const auto& e) {
    return std::get<2>(e) == wload::WPOLLOUT;
  });
  EXPECT_GT(writable, 5);
  EXPECT_EQ(std::get<2>(oracle.back()), wload::WPOLLNVAL);
  EXPECT_EQ(blocking, oracle);
}

// A server on host B writes 256 KiB and closes while host A reads 8 KiB
// every 1.3 ms, so the close lingers behind the slow reader. Returns when
// the close returned and when the reader saw EOF. The oracle runs the same
// server on socket::Listener and socket::Socket, as the shim does, and
// lingers by polling tx_drained() every kShimPollQuantum.
std::pair<sim::Time, sim::Time> lingering_close_times(bool oracle) {
  constexpr std::size_t kBytes = 256 * 1024;
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  std::unique_ptr<wload::Shim> sb;
  core::Host::Process* proc = nullptr;
  if (oracle) proc = &tb.b->create_process("wload");
  else sb = std::make_unique<wload::Shim>(*tb.b);
  sim::Time closed = 0;
  sim::Time eof = 0;
  int finished = 0;
  auto server = [&]() -> sim::Task<void> {
    if (oracle) {
      socket::Listener lst(tb.b->stack(), 7002, {}, 1);
      std::unique_ptr<socket::Socket> s = co_await lst.accept();
      mem::UserBuffer buf(proc->as, kBytes);
      auto ctx = proc->ctx();
      EXPECT_EQ(co_await s->send(ctx, buf.as_uio()), kBytes);
      co_await s->close(ctx);
      const sim::Time give_up = tb.sim.now() + wload::kShimCloseLinger;
      while (!s->tx_drained() && tb.sim.now() < give_up)
        co_await sim::delay(tb.sim, wload::kShimPollQuantum);
    } else {
      const int lfd = sb->wsocket();
      sb->wbind(lfd, 7002);
      sb->wlisten(lfd, 1);
      const int cfd = co_await sb->waccept(lfd);
      mem::UserBuffer buf = sb->walloc(kBytes);
      EXPECT_EQ(co_await sb->wsend(cfd, buf.as_uio()), static_cast<long>(kBytes));
      co_await sb->wclose(cfd);
      co_await sb->wclose(lfd);
    }
    closed = tb.sim.now();
    ++finished;
  };
  auto reader = [&]() -> sim::Task<void> {
    const int fd = sa.wsocket();
    EXPECT_EQ(co_await sa.wconnect(fd, core::Testbed::kIpB, 7002), 0);
    mem::UserBuffer buf = sa.walloc(8 * 1024);
    std::size_t got = 0;
    for (;;) {
      co_await sim::delay(tb.sim, sim::msec(1.3));
      const long n = co_await sa.wrecv(fd, buf.as_uio());
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    EXPECT_EQ(got, kBytes);
    eof = tb.sim.now();
    co_await sa.wclose(fd);
    ++finished;
  };
  sim::spawn(server());
  sim::spawn(reader());
  run_scenario(tb, finished, 2, 60 * sim::kSecond);
  return {closed, eof};
}

TEST(Wload, WcloseLingerMatchesGridOracle) {
  const auto oracle = lingering_close_times(true);
  const auto blocking = lingering_close_times(false);
  EXPECT_GT(oracle.first, sim::msec(10.0));  // it did linger behind the reader
  EXPECT_EQ(blocking, oracle);
}

TEST(Wload, IdleWpollSleepsUntilItsDeadline) {
  core::Testbed tb;
  wload::Shim sa(*tb.a);
  std::uint64_t events = 0;
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    const int fd = sa.wsocket();  // open but unconnected: never ready
    wload::WPollFd p{fd, wload::WPOLLIN, 0};
    const sim::Time t0 = tb.sim.now();
    const std::uint64_t e0 = tb.sim.events_processed();
    EXPECT_EQ(co_await sa.wpoll(&p, 1, sim::msec(10.0)), 0);
    events = tb.sim.events_processed() - e0;
    EXPECT_EQ(tb.sim.now() - t0, sim::msec(10.0));
    co_await sa.wclose(fd);
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, sim::kSecond));
  // A loop of kShimPollQuantum sleeps takes 500 events for the same call.
  EXPECT_LE(events, 3u);
}

TEST(Wload, FdClosedDuringWpollIsNvalAtTheNextTick) {
  core::Testbed tb;
  wload::Shim sb(*tb.b);
  bool done = false;
  auto closer = [&](int fd, sim::Duration after) -> sim::Task<void> {
    co_await sim::delay(tb.sim, after);
    EXPECT_EQ(co_await sb.wclose(fd), 0);
  };
  auto run = [&]() -> sim::Task<void> {
    // Closed between ticks 2 and 3, and exactly on tick 3 by an event
    // scheduled before the wpoll call (so tick 3 already sees it).
    for (const sim::Duration after : {sim::usec(53), 3 * wload::kShimPollQuantum}) {
      const int lfd = sb.wsocket();
      sb.wbind(lfd, 7003);
      sb.wlisten(lfd, 2);
      const int fresh = sb.wsocket();
      // A listener (its embryonic sockets are destroyed) and an fd that
      // never had a socket.
      for (const int fd : {lfd, fresh}) {
        wload::WPollFd p{fd, wload::WPOLLIN, 0};
        const sim::Time t0 = tb.sim.now();
        sim::spawn(closer(fd, after));
        EXPECT_EQ(co_await sb.wpoll(&p, 1, sim::msec(10.0)), 1);
        EXPECT_EQ(p.revents, wload::WPOLLNVAL);
        EXPECT_EQ(tb.sim.now() - t0, 3 * wload::kShimPollQuantum);
      }
      EXPECT_EQ(sb.open_fds(), 0u);
    }
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, sim::kSecond));
}

TEST(Wload, EphemeralPortExhaustionIsAnError) {
  core::Testbed tb;
  auto& stack = tb.a->stack();
  const net::IpAddr laddr = stack.source_addr_for(core::Testbed::kIpB);

  // Occupy every ephemeral (laddr, lport, faddr, fport) tuple toward the
  // target service, so both the fast per-port pass and the full-tuple
  // fallback come up empty. One idle socket's connection stands in for all
  // 55k bindings — the allocator only consults the table, never the peer.
  socket::Socket placeholder(stack, socket::Socket::Proto::kTcp);
  for (std::uint32_t p = 10000; p < 65536; ++p) {
    stack.tcp_bind(net::ConnKey{laddr, static_cast<std::uint16_t>(p),
                                core::Testbed::kIpB, 9999},
                   &placeholder.tcp());
  }
  EXPECT_EQ(stack.alloc_ephemeral_port(laddr, core::Testbed::kIpB, 9999), 0);
  EXPECT_EQ(stack.stats().eph_port_exhausted, 1u);

  // Through the shim the failure surfaces as EADDRNOTAVAIL, distinct from
  // a refused/unreachable peer, and wconnect never blocks on it.
  wload::Shim sa(*tb.a);
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    const int fd = sa.wsocket();
    EXPECT_EQ(co_await sa.wconnect(fd, core::Testbed::kIpB, 9999),
              wload::W_EADDRNOTAVAIL);
    co_await sa.wclose(fd);
    done = true;
  };
  sim::spawn(run());
  ASSERT_TRUE(tb.run_until_done(done, sim::kSecond));
  EXPECT_EQ(sa.stats().connect_eaddrnotavail, 1u);
  EXPECT_EQ(stack.stats().eph_port_exhausted, 2u);

  // Release the tuples and verify the exhaustion counter persists into
  // netstat's JSON export (run after unbinding so netstat's per-connection
  // walk does not enumerate 55k aliases of the placeholder), and
  // that the allocator recovers once tuples are free again.
  for (std::uint32_t p = 10000; p < 65536; ++p) {
    stack.tcp_unbind(net::ConnKey{laddr, static_cast<std::uint16_t>(p),
                                  core::Testbed::kIpB, 9999});
  }
  const std::string js = core::Netstat(*tb.a).to_json();
  EXPECT_NE(js.find("\"eph_port_exhausted\": 2"), std::string::npos);
  EXPECT_NE(stack.alloc_ephemeral_port(laddr, core::Testbed::kIpB, 9999), 0);
}

wload::PopulationConfig small_population(std::uint64_t seed) {
  wload::PopulationConfig cfg;
  cfg.seed = seed;
  wload::CohortConfig web;
  web.name = "web";
  web.users = 6;
  web.requests_per_user = 3;
  web.pareto_xm = 1024;
  web.size_cap = 64 * 1024;
  web.think_mean = sim::msec(1.0);
  wload::CohortConfig bulk;
  bulk.name = "bulk";
  bulk.users = 2;
  bulk.requests_per_user = 2;
  bulk.pareto_xm = 32 * 1024;
  bulk.size_cap = 256 * 1024;
  bulk.think_mean = sim::msec(2.0);
  cfg.cohorts = {web, bulk};
  // A ramp that loads the "evening" bins, to exercise the diurnal table.
  cfg.diurnal_weights = {1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3,
                         4, 4, 4, 5, 5, 6, 8, 8, 6, 4, 2, 1};
  cfg.arrival_window = sim::msec(5.0);
  return cfg;
}

TEST(Wload, PopulationConservesAndIsSeedStable) {
  core::MultiTestbedOptions mopts;
  mopts.num_pairs = 2;
  mopts.telemetry = true;

  auto run_one = [&]() -> wload::PopulationResult {
    core::MultiTestbed tb(mopts);
    return wload::run_population(tb, small_population(77));
  };
  const wload::PopulationResult r1 = run_one();
  ASSERT_TRUE(r1.completed);
  EXPECT_TRUE(r1.conserved());
  ASSERT_EQ(r1.cohorts.size(), 2u);
  for (const auto& c : r1.cohorts) {
    EXPECT_EQ(c.requests_done,
              static_cast<std::uint64_t>(c.users) * (c.name == "web" ? 3 : 2));
    EXPECT_EQ(c.requests_failed, 0u);
    EXPECT_EQ(c.resp_ns.count(), c.requests_done);
    EXPECT_GT(c.goodput_mbps, 0.0);
    EXPECT_GE(c.resp_ns.percentile(99.9), c.resp_ns.percentile(50));
  }
  EXPECT_EQ(r1.conns_total, 6u * 3 + 2u * 2);
  EXPECT_EQ(r1.eph_port_exhausted, 0u);

  // Same seed, fresh world: byte-identical traffic.
  const wload::PopulationResult r2 = run_one();
  ASSERT_TRUE(r2.completed);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(r1.cohorts[c].bytes_received, r2.cohorts[c].bytes_received);
    EXPECT_EQ(r1.cohorts[c].bytes_expected, r2.cohorts[c].bytes_expected);
    EXPECT_EQ(r1.cohorts[c].resp_ns.sum(), r2.cohorts[c].resp_ns.sum());
  }

  // Different seed: the heavy-tailed sizes actually vary.
  core::MultiTestbed tb3(mopts);
  const wload::PopulationResult r3 =
      wload::run_population(tb3, small_population(78));
  ASSERT_TRUE(r3.completed);
  EXPECT_NE(r1.cohorts[0].bytes_expected, r3.cohorts[0].bytes_expected);
}

TEST(Wload, TraceReplayClosesTheLoop) {
  const std::string path = "wload_replay_roundtrip.pcap";
  std::uint64_t captured_payload = 0;
  {
    core::TestbedOptions opts;
    opts.trace_packets = true;
    core::Testbed tb(opts);
    tb.trace->enable_capture(96);  // deliberately truncating: MSS >> 96
    apps::TtcpConfig cfg;
    cfg.total_bytes = 512 * 1024;
    cfg.write_size = 64 * 1024;
    auto r = apps::run_ttcp(tb, cfg);
    ASSERT_TRUE(r.completed);
    for (const auto& e : tb.trace->entries())
      if (e.proto == net::kProtoTcp && e.payload > 0 && !e.fragment)
        captured_payload += e.payload;
    ASSERT_TRUE(tb.trace->write_pcap(path));
  }

  wload::TraceWorkload wl;
  ASSERT_TRUE(wload::TraceWorkload::from_pcap(path, wl));
  EXPECT_GT(wl.truncated, 0u);  // snaplen 96 cut the data segments
  EXPECT_EQ(wl.undecodable, 0u);  // ...but headers always survived
  ASSERT_EQ(wl.flows.size(), 1u);  // one data-bearing direction (ACKs carry 0)
  EXPECT_EQ(wl.flows[0].bytes, captured_payload);
  EXPECT_GE(wl.flows[0].bytes, 512u * 1024);

  // Re-offer the captured flow over a fresh testbed: every captured payload
  // byte is delivered to the sink, despite the truncated capture.
  core::Testbed tb2;
  const wload::TraceReplayResult rr = wload::run_trace_replay(tb2, wl);
  EXPECT_TRUE(rr.conserved());
  EXPECT_EQ(rr.bytes_delivered, captured_payload);
  EXPECT_GT(rr.makespan, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nectar
