#include "mbuf/mbuf_ops.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "checksum/internet_checksum.h"

namespace nectar::mbuf {

namespace {
[[noreturn]] void fail(const char* what) {
  throw std::logic_error(std::string("mbuf_ops: ") + what);
}
}  // namespace

int m_length(const Mbuf* m) noexcept {
  int n = 0;
  for (; m != nullptr; m = m->next) n += m->len();
  return n;
}

int m_count(const Mbuf* m) noexcept {
  int n = 0;
  for (; m != nullptr; m = m->next) ++n;
  return n;
}

void m_uio_done(const Mbuf* m) {
  for (; m != nullptr; m = m->next) {
    if (m->type() == MbufType::kUio && m->uw_hdr().sync != nullptr)
      m->uw_hdr().sync->done(m->len());
  }
}

Mbuf* m_copym(Mbuf* m, int off, int len) {
  if (off < 0 || len < 0) fail("m_copym: negative range");
  MbufPool& pool = m->pool();
  const bool copyhdr = (off == 0) && m->has_pkthdr();

  // Skip to the mbuf containing `off`.
  Mbuf* src = m;
  while (src != nullptr && off >= src->len()) {
    off -= src->len();
    src = src->next;
  }

  Mbuf* head = nullptr;
  Mbuf** tail = &head;
  int remaining = len;
  while (remaining > 0) {
    if (src == nullptr) {
      pool.free_chain(head);
      fail("m_copym: range exceeds record");
    }
    const int take = std::min(src->len() - off, remaining);
    if (src->type() == MbufType::kData && src->uses_cluster()) {
      // Share the external storage; the new mbuf's window starts at off.
      Mbuf* c = pool.share_ext(*src, off, take);
      *tail = c;
      tail = &c->next;
    } else if (src->type() == MbufType::kData) {
      Mbuf* c = pool.get();
      c->append(std::span<const std::byte>{src->data() + off,
                                           static_cast<std::size_t>(take)});
      *tail = c;
      tail = &c->next;
    } else if (src->type() == MbufType::kUio) {
      mem::Uio slice = src->uio().slice(static_cast<std::size_t>(off),
                                        static_cast<std::size_t>(take));
      Mbuf* c = pool.get_uio(std::move(slice), static_cast<std::size_t>(take),
                             src->uw_hdr(), false);
      *tail = c;
      tail = &c->next;
    } else {  // kWcab
      Wcab w = src->wcab();
      w.data_off += static_cast<std::uint32_t>(off);
      w.valid = static_cast<std::uint32_t>(take);
      if (w.owner != nullptr) w.owner->outboard_retain(w.handle);
      Mbuf* c = pool.get_wcab(w, static_cast<std::size_t>(take), src->uw_hdr(), false);
      *tail = c;
      tail = &c->next;
    }
    remaining -= take;
    off = 0;
    src = src->next;
  }

  if (head != nullptr && copyhdr) {
    head->add_flags(kMPktHdr);
    head->pkthdr = m->pkthdr;
    head->pkthdr.len = len;
  }
  return head;
}

void m_copydata(const Mbuf* m, int off, int len, std::span<std::byte> out) {
  if (out.size() < static_cast<std::size_t>(len)) fail("m_copydata: output too small");
  while (m != nullptr && off >= m->len()) {
    off -= m->len();
    m = m->next;
  }
  std::size_t pos = 0;
  while (len > 0) {
    if (m == nullptr) fail("m_copydata: range exceeds record");
    const int take = std::min(m->len() - off, len);
    std::memcpy(out.data() + pos, m->data() + off, static_cast<std::size_t>(take));
    pos += static_cast<std::size_t>(take);
    len -= take;
    off = 0;
    m = m->next;
  }
}

void m_adj(Mbuf* mp, int req_len) {
  if (mp == nullptr) return;
  if (req_len >= 0) {
    // Trim from front.
    int len = req_len;
    Mbuf* m = mp;
    while (m != nullptr && len > 0) {
      const int take = std::min(m->len(), len);
      m->trim_front(static_cast<std::size_t>(take));
      len -= take;
      if (m->len() == 0) m = m->next;
    }
    if (mp->has_pkthdr()) mp->pkthdr.len -= (req_len - len);
  } else {
    // Trim from back.
    int len = -req_len;
    const int total = m_length(mp);
    if (len > total) len = total;
    int keep = total - len;
    Mbuf* m = mp;
    while (m != nullptr) {
      if (keep >= m->len()) {
        keep -= m->len();
        m = m->next;
        continue;
      }
      m->trim_back(static_cast<std::size_t>(m->len() - keep));
      keep = 0;
      // Zero out the rest of the chain lengths (BSD leaves empty mbufs).
      for (Mbuf* r = m->next; r != nullptr; r = r->next)
        r->trim_back(static_cast<std::size_t>(r->len()));
      break;
    }
    if (mp->has_pkthdr()) mp->pkthdr.len -= len;
  }
}

Mbuf* m_pullup(Mbuf* m, int len) {
  if (len < 0 || static_cast<std::size_t>(len) > kMHLen) fail("m_pullup: bad length");
  if (m_length(m) < len) fail("m_pullup: record shorter than request");
  if (m->type() == MbufType::kData && m->len() >= len) return m;

  MbufPool& pool = m->pool();
  Mbuf* n = pool.get();
  if (m->has_pkthdr()) {
    n->add_flags(kMPktHdr);
    n->pkthdr = m->pkthdr;
  }
  // Gather the first `len` bytes (throws if they live in a descriptor).
  std::byte tmp[kMHLen];
  m_copydata(m, 0, len, std::span<std::byte>{tmp, static_cast<std::size_t>(len)});
  n->append(std::span<const std::byte>{tmp, static_cast<std::size_t>(len)});

  // Drop those bytes from the old chain and hang the remainder off n.
  Mbuf* rest = m;
  int drop = len;
  while (rest != nullptr && drop > 0) {
    const int take = std::min(rest->len(), drop);
    rest->trim_front(static_cast<std::size_t>(take));
    drop -= take;
    if (rest->len() == 0) {
      Mbuf* dead = rest;
      rest = rest->next;
      dead->next = nullptr;
      pool.free_one(dead);
    }
  }
  n->next = rest;
  return n;
}

void m_cat(Mbuf* a, Mbuf* b) noexcept {
  while (a->next != nullptr) a = a->next;
  a->next = b;
}

Mbuf* m_prepend(Mbuf* m, int len) {
  if (len < 0) fail("m_prepend: negative length");
  if (m->type() == MbufType::kData &&
      m->leading_space() >= static_cast<std::size_t>(len) && !m->uses_cluster()) {
    m->prepend(static_cast<std::size_t>(len));
    if (m->has_pkthdr()) m->pkthdr.len += len;
    return m;
  }
  MbufPool& pool = m->pool();
  if (static_cast<std::size_t>(len) > kMLen) fail("m_prepend: request exceeds mbuf");
  Mbuf* n = pool.get();
  if (m->has_pkthdr()) {
    n->add_flags(kMPktHdr);
    n->pkthdr = m->pkthdr;
    m->clear_flags(kMPktHdr);
  }
  // Place the new bytes at the end of the new mbuf's storage so later
  // prepends (lower-layer headers) stay in the same mbuf.
  n->align_end(static_cast<std::size_t>(len));
  n->set_len(len);
  n->next = m;
  if (n->has_pkthdr()) n->pkthdr.len += len;
  return n;
}

std::uint32_t in_cksum_range(const Mbuf* m, int off, int len) {
  while (m != nullptr && off >= m->len()) {
    off -= m->len();
    m = m->next;
  }
  std::uint32_t sum = 0;
  std::size_t summed = 0;
  while (len > 0) {
    if (m == nullptr) fail("in_cksum_range: range exceeds record");
    if (m->is_descriptor())
      fail("in_cksum_range: software checksum over outboard/user data");
    const int take = std::min(m->len() - off, len);
    const std::uint32_t part = checksum::ones_sum(
        std::span<const std::byte>{m->data() + off, static_cast<std::size_t>(take)});
    sum = checksum::combine(sum, part, summed);
    summed += static_cast<std::size_t>(take);
    len -= take;
    off = 0;
    m = m->next;
  }
  return sum;
}

}  // namespace nectar::mbuf
