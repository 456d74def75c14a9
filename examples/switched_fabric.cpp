// switched_fabric: four hosts on one HIPPI switch, all transmitting at once.
//
// This is the scenario behind the CAB's logical channels (§2.1): on a
// switch-based network a FIFO MAC suffers head-of-line blocking when
// multiple senders converge, while per-destination queues keep every idle
// output busy. Here three senders stream to the same sink while a fourth
// pair talks crosswise; application-level TCP throughput is compared under
// both MAC modes.
#include <cstdio>

#include "core/host.h"
#include "core/stats.h"
#include "hippi/switch.h"
#include "socket/listener.h"

using namespace nectar;

namespace {

constexpr std::size_t kBytes = 2 * 1024 * 1024;

struct Cluster {
  sim::Simulator sim;
  std::unique_ptr<hippi::Switch> sw;
  std::vector<std::unique_ptr<core::Host>> hosts;
  std::vector<drivers::CabDriver*> cabs;

  explicit Cluster(hippi::MacMode mode, int n) {
    // A deliberately slow fabric (2.5 MB/s links): the adaptors can easily
    // saturate an output port, which is the regime where the MAC matters.
    sw = std::make_unique<hippi::Switch>(sim, mode, 2.5e6);
    for (int i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<core::Host>(
          sim, core::HostParams::alpha3000_400(), "host" + std::to_string(i)));
      cabs.push_back(&hosts.back()->attach_cab(
          *sw, static_cast<hippi::Addr>(0x200 + i), net::make_ip(10, 1, 0, 1 + i)));
    }
    for (int i = 0; i < n; ++i) {
      hosts[i]->stack().routes().add(net::make_ip(10, 1, 0, 0), 24, cabs[i]);
      for (int j = 0; j < n; ++j) {
        if (i != j)
          cabs[i]->add_neighbor(net::make_ip(10, 1, 0, 1 + j),
                                static_cast<hippi::Addr>(0x200 + j));
      }
    }
  }

  net::IpAddr addr(int i) const { return net::make_ip(10, 1, 0, 1 + i); }
};

struct Flow {
  double mbps = 0;
  bool ok = false;
};

// One TCP bulk flow from host `src` to host `dst`:`port`.
sim::Task<void> run_flow(Cluster& c, int src, int dst, std::uint16_t port,
                         Flow& out, int* remaining) {
  auto& ptx = c.hosts[src]->create_process("tx");
  auto& prx = c.hosts[dst]->create_process("rx");
  socket::Socket server(c.hosts[dst]->stack(), socket::Socket::Proto::kTcp);
  server.listen(port);

  bool rx_done = false;
  auto rx = [&]() -> sim::Task<void> {
    auto ctx = prx.ctx();
    if (!co_await server.accept(ctx)) co_return;
    mem::UserBuffer buf(prx.as, 128 * 1024);
    std::size_t got = 0;
    const sim::Time t0 = c.sim.now();
    while (got < kBytes) {
      const std::size_t n = co_await server.recv(ctx, buf.as_uio());
      if (n == 0) break;
      got += n;
    }
    out.ok = got == kBytes;
    out.mbps = sim::throughput_mbps(static_cast<std::int64_t>(got),
                                    c.sim.now() - t0);
    rx_done = true;
    --*remaining;
  };
  sim::spawn(rx());

  auto ctx = ptx.ctx();
  socket::SocketOptions so;
  so.policy = socket::CopyPolicy::kAlwaysSingleCopy;
  socket::Socket client(c.hosts[src]->stack(), socket::Socket::Proto::kTcp, so);
  if (!co_await client.connect(ctx, c.addr(dst), port)) {
    rx_done = true;
    --*remaining;
    co_return;
  }
  mem::UserBuffer buf(ptx.as, 64 * 1024);
  std::size_t sent = 0;
  while (sent < kBytes) sent += co_await client.send(ctx, buf.as_uio());
  co_await client.close(ctx);
  while (!rx_done) co_await sim::delay(c.sim, sim::msec(10));
}

// Returns whether all four flows completed intact.
bool run_mode(hippi::MacMode mode, const char* name) {
  Cluster c(mode, 4);
  // Convergent load: hosts 1, 2, 3 all stream to host 0 (output 0 saturates)
  // while host 1 *also* streams to the idle host 3. In FIFO mode the 1->3
  // packets sit in input 1's single queue behind 1->0 packets that are
  // waiting for the busy output — head-of-line blocking. Logical channels
  // give 1->3 its own queue.
  Flow f10, f20, f30, f13;
  int remaining = 4;
  sim::spawn(run_flow(c, 1, 0, 7001, f10, &remaining));
  sim::spawn(run_flow(c, 2, 0, 7002, f20, &remaining));
  sim::spawn(run_flow(c, 3, 0, 7003, f30, &remaining));
  sim::spawn(run_flow(c, 1, 3, 7004, f13, &remaining));
  while (remaining > 0 && c.sim.now() < 3600 * sim::kSecond) {
    if (!c.sim.step()) break;
  }
  const double in_sum = f10.mbps + f20.mbps + f30.mbps;
  const bool ok = f10.ok && f20.ok && f30.ok && f13.ok;
  std::printf("%-18s  1->0: %6.1f  2->0: %6.1f  3->0: %6.1f  (sum into 0: %6.1f)"
              "   victim 1->3: %6.1f  %s\n",
              name, f10.mbps, f20.mbps, f30.mbps, in_sum, f13.mbps,
              ok ? "" : "[INCOMPLETE]");
  return ok;
}

}  // namespace

int main() {
  std::printf("switched_fabric: 4 hosts, one slow (20 Mbit/s per port) HIPPI\n"
              "switch, 4 concurrent 2 MB TCP flows (three converging on host 0),\n"
              "Mbit/s per flow:\n\n");
  const bool fifo_ok = run_mode(hippi::MacMode::kFifo, "FIFO MAC");
  const bool lc_ok = run_mode(hippi::MacMode::kLogicalChannels, "logical channels");
  std::printf("\nThe convergent flows share host 0's receive path either way; the\n"
              "victim flow 1->3 is the tell: under FIFO its packets queue behind\n"
              "1->0 packets waiting for the hot output (head-of-line blocking,\n"
              "SS2.1); logical channels let them bypass.\n");
  return fifo_ok && lc_ok ? 0 : 1;
}
