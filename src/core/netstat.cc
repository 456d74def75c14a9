#include "core/netstat.h"

#include <sstream>

#include "net/ip.h"
#include "net/udp.h"

namespace nectar::core {

namespace {
std::string ip_str(net::IpAddr a) {
  std::ostringstream os;
  os << ((a >> 24) & 0xff) << '.' << ((a >> 16) & 0xff) << '.' << ((a >> 8) & 0xff)
     << '.' << (a & 0xff);
  return os.str();
}
}  // namespace

Json tcp_stats_json(const net::TcpConnection::Stats& s) {
  Json j = Json::object();
  j.set("segs_out", s.segs_out);
  j.set("bytes_out", s.bytes_out);
  j.set("segs_in", s.segs_in);
  j.set("bytes_in", s.bytes_in);
  j.set("acks_in", s.acks_in);
  j.set("retransmits", s.rexmt_segs);
  j.set("rexmt_timeouts", s.rexmt_timeouts);
  j.set("fast_rexmt", s.fast_rexmt);
  j.set("dup_acks", s.dup_acks);
  j.set("dup_segs_in", s.dup_segs_in);
  j.set("ooo_segs", s.ooo_segs);
  j.set("checksum_drops", s.bad_checksum);
  j.set("hw_csum_rx", s.hw_csum_rx);
  j.set("sw_csum_rx", s.sw_csum_rx);
  j.set("hw_csum_tx", s.hw_csum_tx);
  j.set("sw_csum_tx", s.sw_csum_tx);
  j.set("ecn_ce_rcvd", s.ecn_ce_rcvd);
  j.set("ecn_ece_rcvd", s.ecn_ece_rcvd);
  j.set("ecn_cwnd_cuts", s.ecn_cwnd_cuts);
  j.set("ecn_cwr_sent", s.ecn_cwr_sent);
  return j;
}

Json fault_injector_json(const fault::FaultInjector& inj) {
  Json j = Json::object();
  j.set("injections", inj.injections());
  j.set("active_windows", inj.active_windows());
  Json by = Json::object();
  for (const auto& [name, count] : inj.counters()) by.set(name, count);
  j.set("applied", std::move(by));
  return j;
}

Json impairments_json(const std::vector<hippi::ImpairedFabric*>& impairments) {
  Json arr = Json::array();
  for (const hippi::ImpairedFabric* f : impairments) {
    Json j = Json::object();
    j.set("kind", f->kind());
    for (const auto& [name, value] : f->counters()) j.set(name, value);
    arr.push_back(std::move(j));
  }
  return arr;
}

Json parallel_engine_json(const sim::ParallelEngine& eng) {
  Json j = Json::object();
  j.set("schema_version", 1);
  j.set("lookahead_ns", static_cast<std::int64_t>(eng.lookahead()));
  j.set("epochs", eng.epochs());
  j.set("events", eng.total_events());
  j.set("now_ns", static_cast<std::int64_t>(eng.now()));
  Json arr = Json::array();
  for (std::size_t s = 0; s < eng.num_shards(); ++s) {
    const sim::Shard& sh = eng.shard(s);
    Json e = Json::object();
    e.set("id", static_cast<std::uint64_t>(sh.id));
    e.set("now_ns", static_cast<std::int64_t>(sh.sim.now()));
    e.set("events", sh.sim.events_processed());
    e.set("cancelled", sh.sim.events_cancelled());
    e.set("pending", static_cast<std::uint64_t>(sh.sim.pending()));
    e.set("tombstones", static_cast<std::uint64_t>(sh.sim.tombstones()));
    e.set("compactions", sh.sim.compactions());
    e.set("slots", static_cast<std::uint64_t>(sh.sim.slots_allocated()));
    e.set("posts_out", sh.posts_out);
    e.set("posts_in", sh.posts_in);
    e.set("busy_epochs", sh.busy_epochs);
    e.set("max_pending", static_cast<std::uint64_t>(sh.max_pending));
    arr.push_back(std::move(e));
  }
  j.set("shard", std::move(arr));
  return j;
}

Json Netstat::json() const {
  Host& host = host_;
  Json root = Json::object();
  root.set("schema_version", 1);
  root.set("host", host.name());
  root.set("model", host.params().model);
  root.set("time_s", sim::to_seconds(host.sim().now()));

  Json ifs = Json::array();
  for (net::Ifnet* ifp : host.stack().ifnets()) {
    const auto& s = ifp->if_stats;
    Json j = Json::object();
    j.set("name", ifp->name());
    j.set("addr", ip_str(ifp->addr()));
    j.set("mtu", static_cast<std::uint64_t>(ifp->mtu()));
    j.set("single_copy", ifp->single_copy());
    j.set("opackets", s.opackets);
    j.set("obytes", s.obytes);
    j.set("ipackets", s.ipackets);
    j.set("ibytes", s.ibytes);
    j.set("oerrors", s.oerrors);
    j.set("uio_converted", s.uio_converted);
    if (auto* cab = dynamic_cast<drivers::CabDriver*>(ifp)) {
      auto& dev = cab->device();
      const auto& sd = dev.sdma().stats();
      const auto& mx = dev.mdma_xmit().stats();
      const auto& mr = dev.mdma_recv().stats();
      Json c = Json::object();
      c.set("sdma_requests", sd.requests);
      c.set("sdma_bytes_to_cab", sd.bytes_to_cab);
      c.set("sdma_bytes_from_cab", sd.bytes_from_cab);
      c.set("sdma_busy_s", sim::to_seconds(sd.busy_time));
      c.set("checksum_bytes_summed", dev.sdma().checksum().bytes_summed());
      c.set("mdma_tx_packets", mx.packets);
      c.set("mdma_tx_bytes", mx.bytes);
      c.set("mdma_tx_busy_s", sim::to_seconds(mx.busy_time));
      c.set("mdma_rx_packets", mr.packets);
      c.set("mdma_rx_bytes", mr.bytes);
      c.set("mdma_rx_drops_no_memory", mr.drops_no_memory);
      c.set("mdma_rx_fully_autodma", mr.fully_autodma);
      c.set("tx_fresh", cab->drv_stats.tx_fresh);
      c.set("tx_rewrite", cab->drv_stats.tx_rewrite);
      c.set("tx_no_memory", cab->drv_stats.tx_no_memory);
      c.set("rx_wcab", cab->drv_stats.rx_wcab);
      c.set("rx_small", cab->drv_stats.rx_small);
      c.set("copyouts", cab->drv_stats.copyouts);
      c.set("nm_live_packets", static_cast<std::uint64_t>(dev.nm().live_packets()));
      c.set("nm_free_bytes", static_cast<std::uint64_t>(dev.nm().free_bytes()));
      c.set("nm_used_bytes", static_cast<std::uint64_t>(dev.nm().used_bytes()));
      c.set("nm_max_used_bytes",
            static_cast<std::uint64_t>(dev.nm().max_used_bytes()));
      c.set("nm_max_live_packets",
            static_cast<std::uint64_t>(dev.nm().max_live_packets()));
      c.set("nm_alloc_failures", dev.nm().alloc_failures());
      // DMA arbitration: how deep the per-engine request queues ran and how
      // many flows were backlogged at once, with a per-flow breakdown
      // (std::map keeps flow order, so the dump stays deterministic).
      const auto arb_json = [](const auto& arb) {
        Json a = Json::object();
        a.set("policy", cab::arb_policy_name(arb.policy()));
        a.set("pushes", arb.stats().pushes);
        a.set("pops", arb.stats().pops);
        a.set("max_depth", arb.stats().max_depth);
        a.set("max_flows", arb.stats().max_flows);
        a.set("credit_recharges", arb.stats().credit_recharges);
        a.set("queued_now", static_cast<std::uint64_t>(arb.size()));
        Json flows = Json::array();
        for (const auto& [flow, fs] : arb.flow_stats()) {
          Json f = Json::object();
          f.set("flow", static_cast<std::uint64_t>(flow));
          f.set("weight", static_cast<std::uint64_t>(arb.flow_weight(flow)));
          f.set("pushes", fs.pushes);
          f.set("pops", fs.pops);
          f.set("max_depth", fs.max_depth);
          f.set("queued_now", static_cast<std::uint64_t>(arb.flow_depth(flow)));
          flows.push_back(std::move(f));
        }
        a.set("flows", std::move(flows));
        return a;
      };
      c.set("sdma_arb", arb_json(dev.sdma().arb()));
      c.set("mdma_tx_arb", arb_json(dev.mdma_xmit().arb()));
      // Adaptor fault state: what injected faults did to the hardware model.
      Json jf = Json::object();
      jf.set("sdma_errors", sd.errors);
      jf.set("sdma_aborted", sd.aborted);
      jf.set("sdma_stalled", dev.sdma().stalled());
      jf.set("mdma_tx_errors", mx.errors);
      jf.set("mdma_tx_aborted", mx.aborted);
      jf.set("mdma_tx_stalled", dev.mdma_xmit().stalled());
      jf.set("mdma_rx_drops_stalled", mr.drops_stalled);
      jf.set("mdma_rx_drops_autodma_failed", mr.drops_autodma_failed);
      jf.set("checksum_failed", dev.sdma().checksum().failed());
      jf.set("checksum_bad_sums", dev.sdma().checksum().bad_sums());
      jf.set("nm_force_exhausted", dev.nm().force_exhausted());
      jf.set("nm_leaked_pages", static_cast<std::uint64_t>(dev.nm().leaked_pages()));
      jf.set("fw_stalled", dev.fw_stalled());
      c.set("fault", std::move(jf));
      // Driver recovery: watchdog, reset state machine, degraded datapath.
      if (cab->recovery_enabled()) {
        const auto& r = cab->rec_stats;
        Json jr = Json::object();
        jr.set("state", cab->resetting() ? "resetting" : "up");
        jr.set("degraded_csum",
               (cab->degrade_reasons() & drivers::CabDriver::kDegradeCsum) != 0);
        jr.set("degraded_nomem",
               (cab->degrade_reasons() & drivers::CabDriver::kDegradeNoMem) != 0);
        jr.set("watchdog_fires", r.watchdog_fires);
        jr.set("resets", r.resets);
        jr.set("reset_failures", r.reset_failures);
        jr.set("reset_completes", r.reset_completes);
        jr.set("degrade_enter_csum", r.degrade_enter_csum);
        jr.set("degrade_exit_csum", r.degrade_exit_csum);
        jr.set("degrade_enter_nomem", r.degrade_enter_nomem);
        jr.set("degrade_exit_nomem", r.degrade_exit_nomem);
        jr.set("tx_dropped_resetting", r.tx_dropped_resetting);
        jr.set("tx_dma_failed", r.tx_dma_failed);
        jr.set("rx_bounced", r.rx_bounced);
        jr.set("rx_bounce_failed", r.rx_bounce_failed);
        jr.set("copy_in_sw_csum", r.copy_in_sw_csum);
        jr.set("copy_in_retries", r.copy_in_retries);
        jr.set("copyout_retries", r.copyout_retries);
        jr.set("copyouts_failed", r.copyouts_failed);
        jr.set("leaked_reclaimed", r.leaked_reclaimed);
        c.set("recovery", std::move(jr));
      }
      // Large-segment offload: TSO fan-out and receive coalescing. Emitted
      // only when enabled, so offload-off dumps stay byte-identical.
      if (cab->offload_enabled()) {
        const auto& of = cab->off_stats;
        Json jo = Json::object();
        jo.set("tso_max", static_cast<std::uint64_t>(cab->offload_config().tso_max));
        jo.set("gro_budget", static_cast<std::uint64_t>(drivers::kGroBudget));
        jo.set("tx_super_segs", of.tx_super_segs);
        jo.set("tx_wire_segs", of.tx_wire_segs);
        jo.set("tx_tso_bytes", of.tx_tso_bytes);
        jo.set("tx_fallback_host_seg", of.tx_fallback_host_seg);
        jo.set("mdma_tso_requests", mx.tso_requests);
        jo.set("mdma_tso_wire_segs", mx.tso_wire_segs);
        jo.set("rx_batches", of.rx_batches);
        jo.set("rx_batched_descs", of.rx_batched_descs);
        jo.set("rx_merged_segs", of.rx_merged_segs);
        jo.set("rx_merged_bytes", of.rx_merged_bytes);
        jo.set("rx_csum_verified", of.rx_csum_verified);
        jo.set("rx_flush_budget", of.rx_flush_budget);
        jo.set("rx_flush_timer", of.rx_flush_timer);
        jo.set("rx_flush_barrier", of.rx_flush_barrier);
        jo.set("rx_gro_bypass", of.rx_gro_bypass);
        c.set("offload", std::move(jo));
      }
      j.set("cab", std::move(c));
    }
    ifs.push_back(std::move(j));
  }
  root.set("interfaces", std::move(ifs));

  const auto& ip = host.stack().ip().stats();
  Json jip = Json::object();
  jip.set("ipackets", ip.ipackets);
  jip.set("opackets", ip.opackets);
  jip.set("ofragments", ip.ofragments);
  jip.set("reassembled", ip.reassembled);
  jip.set("forwarded", ip.forwarded);
  jip.set("bad_header", ip.bad_header);
  jip.set("bad_checksum", ip.bad_checksum);
  jip.set("no_route", ip.no_route);
  jip.set("frag_timeouts", ip.frag_timeouts);
  jip.set("oversize", ip.oversize);
  jip.set("ecn_marked", ip.ecn_marked);
  root.set("ip", std::move(jip));

  const auto& udp = host.stack().udp().stats();
  Json judp = Json::object();
  judp.set("in_datagrams", udp.in_datagrams);
  judp.set("out_datagrams", udp.out_datagrams);
  judp.set("bad_checksum", udp.bad_checksum);
  judp.set("no_port", udp.no_port);
  judp.set("unverifiable", udp.unverifiable);
  judp.set("hw_csum_tx", udp.hw_csum_tx);
  judp.set("sw_csum_tx", udp.sw_csum_tx);
  judp.set("nocsum_tx", udp.nocsum_tx);
  root.set("udp", std::move(judp));

  const auto& st = host.stack().stats();
  Json jd = Json::object();
  jd.set("tcp_in", st.tcp_in);
  jd.set("udp_in", st.udp_in);
  jd.set("raw_in", st.raw_in);
  jd.set("no_proto", st.no_proto);
  jd.set("no_port", st.no_port);
  jd.set("bad_checksum", st.bad_checksum);
  jd.set("listen_overflows", st.listen_overflows);
  jd.set("eph_port_exhausted", st.eph_port_exhausted);
  jd.set("syn_admission_deferred", st.syn_admission_deferred);
  jd.set("syn_cookies_sent", st.syn_cookies_sent);
  jd.set("syn_cookies_accepted", st.syn_cookies_accepted);
  jd.set("syn_cookies_rejected", st.syn_cookies_rejected);
  jd.set("syn_cookie_overflows", st.syn_cookie_overflows);
  jd.set("timewait_enters", st.timewait_enters);
  jd.set("timewait_acks", st.timewait_acks);
  jd.set("timewait_recycles", st.timewait_recycles);
  jd.set("timewait_expiries", st.timewait_expiries);
  jd.set("timewait_live", static_cast<std::uint64_t>(host.stack().timewait_count()));
  jd.set("zombies", static_cast<std::uint64_t>(host.stack().zombie_count()));
  // Connection hash-table internals: probe behaviour tells whether the O(1)
  // demux claim held up under this run's churn.
  const auto& dm = host.stack().tcp_demux();
  Json jt = Json::object();
  jt.set("live", static_cast<std::uint64_t>(dm.size()));
  jt.set("buckets", static_cast<std::uint64_t>(dm.buckets()));
  jt.set("tombstones", static_cast<std::uint64_t>(dm.tombstones()));
  jt.set("max_cluster", static_cast<std::uint64_t>(dm.max_cluster()));
  jt.set("lookups", dm.stats().lookups);
  jt.set("hits", dm.stats().hits);
  jt.set("probe_steps", dm.stats().probe_steps);
  jt.set("max_probe", dm.stats().max_probe);
  jt.set("inserts", dm.stats().inserts);
  jt.set("erases", dm.stats().erases);
  jt.set("grows", dm.stats().grows);
  jt.set("rehashes", dm.stats().rehashes);
  jd.set("table", std::move(jt));
  root.set("demux", std::move(jd));

  // Overload-survival state: emitted only when a manager is attached, so
  // overload-off dumps stay byte-identical (the recovery/offload pattern).
  if (auto* ovl = host.overload()) {
    const auto& os = ovl->stats();
    Json jo = Json::object();
    jo.set("overloaded", ovl->overloaded());
    jo.set("polls", os.polls);
    jo.set("syn_checks", os.syn_checks);
    jo.set("syn_deferred", os.syn_deferred);
    jo.set("sc_checks", os.sc_checks);
    jo.set("sc_deferred", os.sc_deferred);
    jo.set("mark_checks", os.mark_checks);
    jo.set("ecn_marked", os.ecn_marked);
    Json jres = Json::array();
    for (std::size_t r = 0; r < overload::kNumResources; ++r) {
      const auto rr = static_cast<overload::Resource>(r);
      Json e = Json::object();
      e.set("resource", overload::resource_name(rr));
      e.set("over", ovl->overloaded(rr));
      e.set("occupancy", ovl->occupancy(rr));
      e.set("enters", os.enters[r]);
      e.set("exits", os.exits[r]);
      const auto& wm = ovl->watermark(r);
      e.set("high", wm.high);
      e.set("low", wm.low);
      jres.push_back(std::move(e));
    }
    jo.set("resources", std::move(jres));
    root.set("overload", std::move(jo));
  }

  // Protocol timer wheel: proves the O(1) control-plane timer claim — peak
  // pending is the concurrent-timer load, alarms vs fired shows how much the
  // wheel batches the underlying heap.
  const auto& tws = host.timer_wheel().stats();
  Json jw = Json::object();
  jw.set("pending", static_cast<std::uint64_t>(host.timer_wheel().pending()));
  jw.set("max_pending", static_cast<std::uint64_t>(tws.max_pending));
  jw.set("slots", static_cast<std::uint64_t>(host.timer_wheel().slots_allocated()));
  jw.set("scheduled", tws.scheduled);
  jw.set("fired", tws.fired);
  jw.set("cancelled", tws.cancelled);
  jw.set("cascaded", tws.cascaded);
  jw.set("alarms", tws.alarms);
  root.set("timer_wheel", std::move(jw));

  Json conns = Json::array();
  for (const auto& [key, tp] : host.stack().tcp_connections()) {
    Json j = Json::object();
    std::ostringstream name;
    name << ip_str(key.laddr) << ':' << key.lport << '-' << ip_str(key.faddr)
         << ':' << key.fport;
    j.set("conn", name.str());
    j.set("state", net::tcp_state_name(tp->state()));
    j.set("stats", tcp_stats_json(tp->stats()));
    conns.push_back(std::move(j));
  }
  root.set("tcp", std::move(conns));

  const auto& m = host.pool().stats();
  Json jm = Json::object();
  jm.set("allocs", m.allocs);
  jm.set("frees", m.frees);
  jm.set("live", static_cast<std::uint64_t>(host.pool().in_use()));
  jm.set("cluster_allocs", m.cluster_allocs);
  jm.set("uio_allocs", m.uio_allocs);
  jm.set("wcab_allocs", m.wcab_allocs);
  jm.set("freelist_hits", m.freelist_hits);
  jm.set("cluster_freelist_hits", m.cluster_freelist_hits);
  jm.set("high_water", static_cast<std::uint64_t>(m.high_water));
  root.set("mbufs", std::move(jm));

  // Event-core hygiene counters (the Simulator is shared by all hosts of a
  // testbed, so these are per-simulation, not per-host).
  Json js = Json::object();
  js.set("events_processed", host.sim().events_processed());
  js.set("events_cancelled", host.sim().events_cancelled());
  js.set("event_compactions", host.sim().compactions());
  js.set("event_slots", static_cast<std::uint64_t>(host.sim().slots_allocated()));
  root.set("sim", std::move(js));

  const auto& v = host.vm().stats();
  Json jv = Json::object();
  jv.set("pin_ops", v.pin_ops);
  jv.set("pages_pinned", v.pages_pinned);
  jv.set("unpin_ops", v.unpin_ops);
  jv.set("map_ops", v.map_ops);
  jv.set("pinned_now", static_cast<std::uint64_t>(host.vm().pinned_pages()));
  root.set("vm", std::move(jv));

  const auto& pc = host.pin_cache().stats();
  Json jpc = Json::object();
  jpc.set("page_hits", pc.page_hits);
  jpc.set("page_misses", pc.page_misses);
  jpc.set("evictions", pc.evictions);
  jpc.set("resident", static_cast<std::uint64_t>(host.pin_cache().resident_pages()));
  root.set("pin_cache", std::move(jpc));

  Json jcpu = Json::object();
  Json accts = Json::object();
  for (std::size_t i = 0; i < host.cpu().num_accounts(); ++i) {
    accts.set(host.cpu().account_name(i),
              sim::to_seconds(host.cpu().busy(i)));
  }
  jcpu.set("accounts_busy_s", std::move(accts));
  jcpu.set("total_busy_s", sim::to_seconds(host.cpu().total_busy()));
  root.set("cpu", std::move(jcpu));

  return root;
}

std::string netstat(Host& host) {
  std::string out;
  for_each_scalar(Netstat(host).json(), nullptr,
                  [&out](const std::string& path, const Json& value,
                         const Json*) {
                    out += path;
                    out += ' ';
                    out += value.dump();
                    out += '\n';
                  });
  return out;
}

}  // namespace nectar::core
