#include "drivers/ether_driver.h"

#include "net/ip.h"

#include <cstring>
#include <memory>

namespace nectar::drivers {

using mbuf::Mbuf;
using net::KernCtx;

sim::Task<Mbuf*> convert_uio_record(net::NetStack& stack, KernCtx ctx, Mbuf* pkt) {
  auto& env = stack.env();
  Mbuf** link = &pkt;
  Mbuf* m = pkt;
  while (m != nullptr) {
    if (m->type() != mbuf::MbufType::kUio) {
      link = &m->next;
      m = m->next;
      continue;
    }
    // Copy the user data into cluster mbufs (charged at copy bandwidth).
    const auto len = static_cast<std::size_t>(m->len());
    co_await env.cpu.run(
        sim::transfer_time(static_cast<std::int64_t>(len), stack.costs().copy_bw_bps),
        ctx.acct, ctx.prio);

    Mbuf* repl_head = nullptr;
    Mbuf** repl_link = &repl_head;
    const mem::Uio& u = m->uio();
    Mbuf* cur = nullptr;
    for (const auto& v : u.iov) {
      auto src = u.space->read_view(v.base, v.len);
      std::size_t off = 0;
      while (off < v.len) {
        if (cur == nullptr || cur->trailing_space() == 0) {
          cur = env.pool.get_cluster(false);
          *repl_link = cur;
          repl_link = &cur->next;
        }
        const std::size_t take = std::min(v.len - off, cur->trailing_space());
        cur->append(src.subspan(off, take));
        off += take;
      }
    }

    Mbuf* after = m->next;
    if (m->has_pkthdr() && repl_head != nullptr) {
      repl_head->add_flags(mbuf::kMPktHdr);
      repl_head->pkthdr = m->pkthdr;
    }
    m->next = nullptr;
    // The data is now copied: the writer no longer needs its buffer.
    mbuf::m_uio_done(m);
    env.pool.free_one(m);
    *link = repl_head != nullptr ? repl_head : after;
    Mbuf* tail = repl_head;
    while (tail != nullptr && tail->next != nullptr) tail = tail->next;
    if (tail != nullptr) {
      tail->next = after;
      link = &tail->next;
    }
    m = after;
  }
  co_return pkt;
}

void EtherSegment::transmit(net::IpAddr dst, std::vector<std::byte> frame) {
  q_.emplace_back(dst, std::move(frame));
  kick();
}

void EtherSegment::kick() {
  if (busy_ || q_.empty()) return;
  busy_ = true;
  auto [dst, frame] = std::move(q_.front());
  q_.pop_front();
  const auto t = sim::transfer_time(static_cast<std::int64_t>(frame.size()), bw_);
  auto shared = std::make_shared<std::vector<std::byte>>(std::move(frame));
  const net::IpAddr dest = dst;
  sim_.after(t + prop_, [this, dest, shared] {
    busy_ = false;
    auto it = drivers_.find(dest);
    if (it == drivers_.end()) {
      ++dropped_;
    } else {
      ++delivered_;
      it->second->deliver(std::move(*shared));
    }
    kick();
  });
}

sim::Task<void> EtherDriver::output(KernCtx ctx, Mbuf* pkt, net::IpAddr next_hop) {
  auto& env = stack()->env();
  co_await env.cpu.run(sim::usec(stack()->costs().driver_issue_us), ctx.acct,
                       ctx.prio);

  // §5 entry-point conversion: this driver does not understand descriptors.
  bool has_uio = false;
  bool has_wcab = false;
  for (Mbuf* m = pkt; m != nullptr; m = m->next) {
    if (m->type() == mbuf::MbufType::kUio) has_uio = true;
    if (m->type() == mbuf::MbufType::kWcab) has_wcab = true;
  }
  if (has_wcab) {
    // Outboard data is unreachable from here (see header comment).
    ++drv_stats.wcab_dropped;
    ++if_stats.oerrors;
    env.pool.free_chain(pkt);
    co_return;
  }
  if (has_uio) {
    ++if_stats.uio_converted;
    pkt = co_await convert_uio_record(*stack(), ctx, pkt);
  }

  // Flatten into a frame (the NIC's view of the mbuf chain; DMA, not CPU).
  const auto len = static_cast<std::size_t>(mbuf::m_length(pkt));
  std::vector<std::byte> frame(len);
  mbuf::m_copydata(pkt, 0, static_cast<int>(len), frame);
  env.pool.free_chain(pkt);

  ++if_stats.opackets;
  if_stats.obytes += len;
  seg_.transmit(next_hop, std::move(frame));
  co_return;
}

void EtherDriver::deliver(std::vector<std::byte> frame) {
  sim::spawn(recv_intr(std::move(frame)));
}

sim::Task<void> EtherDriver::recv_intr(std::vector<std::byte> frame) {
  auto& env = stack()->env();
  KernCtx ctx{env.intr_acct, sim::Priority::Interrupt};
  co_await env.cpu.run(sim::usec(stack()->costs().intr_us), ctx.acct, ctx.prio);

  ++if_stats.ipackets;
  if_stats.ibytes += frame.size();

  // The NIC DMAed the frame into host buffers; wrap it (no CPU charge).
  Mbuf* m = env.pool.get_ext(frame.size(), /*pkthdr=*/true);
  m->append(frame);
  m->pkthdr.len = static_cast<int>(frame.size());
  co_await stack()->ip().input(ctx, m, this);
}

}  // namespace nectar::drivers
