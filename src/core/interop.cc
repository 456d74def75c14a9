#include "core/interop.h"

namespace nectar::core {

using mbuf::Mbuf;

sim::Task<Mbuf*> convert_wcab_record(net::NetStack& stack, net::KernCtx ctx,
                                     Mbuf* pkt) {
  auto& env = stack.env();
  Mbuf** link = &pkt;
  Mbuf* m = pkt;
  while (m != nullptr) {
    if (m->type() != mbuf::MbufType::kWcab) {
      link = &m->next;
      m = m->next;
      continue;
    }
    const mbuf::Wcab w = m->wcab();
    net::Ifnet& drv = stack.outboard_ifnet(w);

    const auto len = static_cast<std::size_t>(m->len());
    Mbuf* repl = env.pool.get_ext(len, false);
    repl->set_len(static_cast<int>(len));

    // Asynchronous DMA + resynchronization (§5).
    std::vector<mem::HostSeg> dst(1, mem::HostSeg{0, repl->span()});
    mbuf::DmaSync sync(env.sim);
    co_await drv.copy_out(ctx, w, std::move(dst), &sync);
    co_await sync.drain();
    co_await env.cpu.run(sim::usec(stack.costs().intr_us), env.intr_acct,
                         sim::Priority::Interrupt);

    Mbuf* after = m->next;
    if (m->has_pkthdr()) {
      repl->add_flags(mbuf::kMPktHdr);
      repl->pkthdr = m->pkthdr;
    }
    m->next = nullptr;
    env.pool.free_one(m);  // releases the outboard buffer reference
    *link = repl;
    repl->next = after;
    link = &repl->next;
    m = after;
  }
  co_return pkt;
}

}  // namespace nectar::core
