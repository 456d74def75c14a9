#include "wload/trace_replay.h"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include "core/packet_trace.h"
#include "net/headers.h"
#include "wload/wapps.h"

namespace nectar::wload {

bool TraceWorkload::from_pcap(const std::string& path, TraceWorkload& out) {
  core::PacketTrace::PcapFile pf;
  if (!core::PacketTrace::read_pcap(path, pf)) return false;
  out = TraceWorkload{};
  out.linktype = pf.linktype;
  out.records = pf.records.size();

  using FlowKey = std::tuple<net::IpAddr, net::IpAddr, std::uint16_t, std::uint16_t>;
  std::map<FlowKey, std::size_t> index;  // ordered: flow order is capture order
                                         // of first appearance, not hash order
  for (const core::PacketTrace::PcapRecord& rec : pf.records) {
    if (rec.truncated) ++out.truncated;
    if (pf.linktype != 101 || rec.bytes.size() < net::kIpHdrLen) {
      ++out.undecodable;
      continue;
    }
    net::IpHeader ih;
    try {
      ih = net::read_ip_header(rec.bytes);
    } catch (const std::exception&) {
      ++out.undecodable;
      continue;
    }
    if (ih.more_fragments || ih.frag_offset != 0) {
      ++out.fragments;
      continue;
    }
    if (ih.proto != net::kProtoTcp) {
      ++out.non_tcp;
      continue;
    }
    const std::span<const std::byte> tcp =
        std::span<const std::byte>(rec.bytes).subspan(net::kIpHdrLen);
    if (tcp.size() < net::kTcpHdrLen) {
      ++out.undecodable;  // snaplen too small even for the TCP header
      continue;
    }
    net::TcpHeader th;
    try {
      th = net::read_tcp_header(tcp);
    } catch (const std::exception&) {
      ++out.undecodable;
      continue;
    }
    // Payload from the headers, not from what the snaplen kept.
    const std::size_t hdrs =
        net::kIpHdrLen + static_cast<std::size_t>(th.data_off_words) * 4;
    if (ih.total_len < hdrs) {
      ++out.undecodable;
      continue;
    }
    const std::size_t payload = ih.total_len - hdrs;
    if (payload == 0) continue;  // pure ACK/SYN/FIN: nothing to replay

    const FlowKey key{ih.src, ih.dst, th.src_port, th.dst_port};
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, out.flows.size()).first;
      TraceFlow f;
      f.src = ih.src;
      f.dst = ih.dst;
      f.sport = th.src_port;
      f.dport = th.dst_port;
      f.first_at = rec.when;
      out.flows.push_back(std::move(f));
    }
    TraceFlow& f = out.flows[it->second];
    f.segs.push_back(TraceFlow::Seg{rec.when - f.first_at, payload});
    f.bytes += payload;
  }
  return true;
}

namespace {

struct SinkCtl : ServerCtl {
  std::uint64_t bytes_in = 0;
};

sim::Task<void> sink_conn(Shim& sh, int fd, SinkCtl& ctl) {
  mem::UserBuffer buf = sh.walloc(64 * 1024);
  for (;;) {
    const long n = co_await sh.wrecv(fd, buf.as_uio());
    if (n <= 0) break;
    ctl.bytes_in += static_cast<std::uint64_t>(n);
  }
  co_await sh.wclose(fd);
  --ctl.active;
}

sim::Task<void> sink_server(Shim& sh, std::uint16_t port, int backlog,
                            SinkCtl& ctl) {
  return accept_loop(sh, port, backlog, ctl,
                     [&sh, &ctl](int fd) { sim::spawn(sink_conn(sh, fd, ctl)); });
}

struct ReplayShared {
  std::size_t finished = 0;
  std::size_t total = 0;
  bool done = false;
};

sim::Task<void> replay_flow(Shim& sh, const TraceFlow& flow, std::uint16_t port,
                            sim::Time start_at, TraceReplayResult& res,
                            ReplayShared& shared) {
  auto& sim = sh.sim();
  if (start_at > sim.now()) co_await sim::delay(sim, start_at - sim.now());
  const sim::Time t0 = sim.now();
  const int fd = sh.wsocket();
  const int rc = co_await sh.wconnect(fd, core::Testbed::kIpB, port);
  if (rc < 0) {
    ++res.flows_failed;
    co_await sh.wclose(fd);
    if (++shared.finished == shared.total) shared.done = true;
    co_return;
  }
  std::size_t buf_cap = 0;
  for (const TraceFlow::Seg& s : flow.segs) buf_cap = std::max(buf_cap, s.payload);
  mem::UserBuffer buf = sh.walloc(std::max<std::size_t>(buf_cap, 1));
  bool ok = true;
  for (const TraceFlow::Seg& s : flow.segs) {
    const sim::Time due = t0 + s.at;
    if (due > sim.now()) co_await sim::delay(sim, due - sim.now());
    const long w = co_await sh.wsend(fd, buf.as_uio(0, s.payload));
    if (w != static_cast<long>(s.payload)) {
      ok = false;
      break;
    }
  }
  if (!ok) ++res.flows_failed;
  co_await sh.wclose(fd);
  if (++shared.finished == shared.total) shared.done = true;
}

}  // namespace

TraceReplayResult run_trace_replay(core::Testbed& tb, const TraceWorkload& wl,
                                   const TraceReplayConfig& cfg) {
  TraceReplayResult out;
  out.flows = wl.flows.size();
  for (const TraceFlow& f : wl.flows) out.bytes_offered += f.bytes;

  Shim::Options copts, sopts;
  copts.process_name = "replay";
  sopts.process_name = "sink";
  Shim client(*tb.a, copts);
  Shim server(*tb.b, sopts);

  std::vector<SinkCtl> sctl(wl.flows.size());
  for (std::size_t i = 0; i < wl.flows.size(); ++i) {
    sim::spawn(sink_server(server,
                           static_cast<std::uint16_t>(kReplayBasePort + i),
                           cfg.listen_backlog, sctl[i]));
  }

  ReplayShared shared;
  shared.total = wl.flows.size();
  if (shared.total == 0) shared.done = true;

  // Preserve the capture's relative flow start times, anchored at the
  // earliest flow.
  sim::Time earliest = 0;
  for (const TraceFlow& f : wl.flows)
    earliest = earliest == 0 ? f.first_at : std::min(earliest, f.first_at);
  const sim::Time t0 = tb.sim.now();
  for (std::size_t i = 0; i < wl.flows.size(); ++i) {
    sim::spawn(replay_flow(client, wl.flows[i],
                           static_cast<std::uint16_t>(kReplayBasePort + i),
                           t0 + (wl.flows[i].first_at - earliest), out, shared));
  }

  out.completed = tb.run_until_done(shared.done, cfg.deadline);

  // Drain the sinks: stop accept loops, run until every handler saw EOF.
  for (SinkCtl& c : sctl) c.stop = true;
  for (int spin = 0; spin < 1000; ++spin) {
    bool idle = true;
    for (const SinkCtl& c : sctl)
      if (!c.exited || c.active != 0) idle = false;
    if (idle) break;
    tb.sim.run_until(tb.sim.now() + sim::msec(1.0));
  }
  for (const SinkCtl& c : sctl) out.bytes_delivered += c.bytes_in;
  out.makespan = tb.sim.now() > t0 ? tb.sim.now() - t0 : 0;
  return out;
}

}  // namespace nectar::wload
