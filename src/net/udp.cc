#include "net/udp.h"

#include <stdexcept>

#include "net/ip.h"

namespace nectar::net {

using mbuf::Mbuf;

void Udp::bind(std::uint16_t port, UdpSocketIface* s) {
  if (ports_.contains(port)) throw std::invalid_argument("udp: port in use");
  ports_[port] = s;
}

void Udp::unbind(std::uint16_t port) { ports_.erase(port); }

sim::Task<void> Udp::output(KernCtx ctx, Mbuf* data, IpAddr src, std::uint16_t sport,
                            IpAddr dst, std::uint16_t dport, bool checksum_enable) {
  auto& env = stack_.env();
  co_await env.cpu.run(sim::usec(stack_.costs().udp_output_us), ctx.acct, ctx.prio);
  ++stats_.out_datagrams;

  const std::size_t dlen = static_cast<std::size_t>(mbuf::m_length(data));
  if (kUdpHdrLen + dlen > 0xffff - kIpHdrLen) {
    env.pool.free_chain(data);
    throw std::invalid_argument("udp: datagram exceeds the IPv4 maximum (EMSGSIZE)");
  }
  const auto seg_len = static_cast<std::uint16_t>(kUdpHdrLen + dlen);

  bool descriptor_data = false;
  for (Mbuf* m = data; m != nullptr; m = m->next) {
    if (m->is_descriptor()) descriptor_data = true;
  }

  auto route = stack_.routes().lookup(dst);
  const bool hw = route && (route->ifp->caps() & kCapHwChecksum);
  const bool fragments = route && kIpHdrLen + seg_len > route->ifp->mtu();

  UdpHeader uh;
  uh.src_port = sport;
  uh.dst_port = dport;
  uh.length = seg_len;
  uh.checksum = 0;

  Mbuf* h = env.pool.get_hdr();
  h->align_end(kUdpHdrLen);
  std::byte hb[kUdpHdrLen];

  enum class Mode { kHw, kSw, kNone } mode;
  if (!checksum_enable) {
    mode = Mode::kNone;
  } else if (hw && !fragments) {
    mode = Mode::kHw;
  } else if (!descriptor_data) {
    mode = Mode::kSw;
  } else {
    mode = Mode::kNone;  // fragmented single-copy: checksum off (header note)
  }

  switch (mode) {
    case Mode::kHw: {
      ++stats_.hw_csum_tx;
      write_udp_header(hb, uh);
      const std::uint32_t seed =
          transport_pseudo_sum(src, dst, kProtoUdp, seg_len) +
          checksum::ones_sum(std::span<const std::byte>{hb, kUdpHdrLen});
      uh.checksum = checksum::fold(seed);
      write_udp_header(hb, uh);
      h->pkthdr.csum_tx.offload = true;
      h->pkthdr.csum_tx.csum_offset = static_cast<std::uint16_t>(kIpHdrLen + 6);
      h->pkthdr.csum_tx.skip_words =
          static_cast<std::uint16_t>((kIpHdrLen + kUdpHdrLen) / 4);
      break;
    }
    case Mode::kSw: {
      ++stats_.sw_csum_tx;
      write_udp_header(hb, uh);
      std::uint32_t sum = transport_pseudo_sum(src, dst, kProtoUdp, seg_len) +
                          checksum::ones_sum(std::span<const std::byte>{hb, kUdpHdrLen});
      if (dlen > 0) {
        sum = checksum::combine(
            sum, mbuf::in_cksum_range(data, 0, static_cast<int>(dlen)), kUdpHdrLen);
        co_await env.cpu.run(sim::transfer_time(static_cast<std::int64_t>(dlen),
                                                stack_.costs().cksum_bw_bps),
                             ctx.acct, ctx.prio);
      }
      uh.checksum = checksum::finish(sum);
      write_udp_header(hb, uh);
      break;
    }
    case Mode::kNone:
      ++stats_.nocsum_tx;
      write_udp_header(hb, uh);
      break;
  }

  h->append(std::span<const std::byte>{hb, kUdpHdrLen});
  h->next = data;
  h->pkthdr.len = static_cast<int>(kUdpHdrLen + dlen);

  // A single-copy writer's counter completes in the driver that consumes or
  // drops each (fragment) record (mbuf::m_uio_done).
  co_await stack_.ip().output(ctx, h, src, dst, kProtoUdp, /*dont_fragment=*/false);
}

sim::Task<void> Udp::input(KernCtx ctx, Mbuf* pkt, const IpHeader& ih) {
  auto& env = stack_.env();
  co_await env.cpu.run(sim::usec(stack_.costs().udp_input_us), ctx.acct, ctx.prio);

  const auto seg_len = static_cast<std::size_t>(pkt->pkthdr.len);
  UdpHeader uh;
  try {
    if (seg_len < kUdpHdrLen) throw std::runtime_error("short datagram");
    pkt = mbuf::m_pullup(pkt, static_cast<int>(kUdpHdrLen));
    uh = read_udp_header(pkt->span());
    if (uh.length > seg_len) throw std::runtime_error("bad udp length");
  } catch (const std::exception&) {
    ++stats_.bad_checksum;
    env.pool.free_chain(pkt);
    co_return;
  }

  if (uh.checksum != 0) {
    const std::uint32_t pseudo =
        transport_pseudo_sum(ih.src, ih.dst, kProtoUdp, uh.length);
    if (pkt->pkthdr.rx_hw_sum_valid) {
      if (checksum::fold(pseudo + pkt->pkthdr.rx_hw_sum) != 0xffff) {
        ++stats_.bad_checksum;
        env.pool.free_chain(pkt);
        co_return;
      }
    } else {
      bool descriptor_data = false;
      for (Mbuf* m = pkt; m != nullptr; m = m->next) {
        if (m->is_descriptor()) descriptor_data = true;
      }
      if (descriptor_data) {
        // Reassembled single-copy fragments: per-fragment hardware sums were
        // lost in reassembly and the data cannot be read. Count and accept
        // (senders in this stack disable the checksum for this case).
        ++stats_.unverifiable;
      } else {
        co_await env.cpu.run(sim::transfer_time(static_cast<std::int64_t>(uh.length),
                                                stack_.costs().cksum_bw_bps),
                             ctx.acct, ctx.prio);
        const std::uint32_t sum =
            pseudo + mbuf::in_cksum_range(pkt, 0, static_cast<int>(uh.length));
        if (checksum::fold(sum) != 0xffff) {
          ++stats_.bad_checksum;
          env.pool.free_chain(pkt);
          co_return;
        }
      }
    }
  }

  // Trim any payload padding, strip the header, demux.
  if (seg_len > uh.length)
    mbuf::m_adj(pkt, -static_cast<int>(seg_len - uh.length));
  mbuf::m_adj(pkt, static_cast<int>(kUdpHdrLen));

  auto it = ports_.find(uh.dst_port);
  if (it == ports_.end()) {
    ++stats_.no_port;
    env.pool.free_chain(pkt);
    co_return;
  }
  ++stats_.in_datagrams;
  it->second->udp_deliver(pkt, ih.src, uh.src_port);
}

}  // namespace nectar::net
