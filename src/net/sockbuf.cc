#include "net/sockbuf.h"

#include <cassert>
#include <stdexcept>

namespace nectar::net {

using mbuf::Mbuf;
using mbuf::MbufType;

Sockbuf::~Sockbuf() {
  if (head_ != nullptr && pool_ != nullptr) pool_->free_chain(head_);
}

void Sockbuf::append(Mbuf* chain) {
  if (chain == nullptr) return;
  if (pool_ == nullptr) pool_ = &chain->pool();

  // Normalize away zero-length mbufs (m_adj header stripping leaves them,
  // BSD-style); they carry no stream bytes and would wedge byte-walking
  // consumers.
  Mbuf** link = &chain;
  while (*link != nullptr) {
    if ((*link)->len() == 0) {
      Mbuf* dead = *link;
      *link = dead->next;
      dead->next = nullptr;
      pool_->free_one(dead);
    } else {
      link = &(*link)->next;
    }
  }
  if (chain == nullptr) return;

  if (tail_ == nullptr) {
    head_ = chain;
  } else {
    tail_->next = chain;
  }
  for (Mbuf* m = chain; m != nullptr; m = m->next) {
    cc_ += static_cast<std::size_t>(m->len());
    tail_ = m;
  }
}

void Sockbuf::drop(std::size_t n) {
  if (n > cc_) throw std::logic_error("Sockbuf::drop: beyond contents");
  base_pos_ += n;
  cc_ -= n;
  while (n > 0) {
    assert(head_ != nullptr);
    const auto mlen = static_cast<std::size_t>(head_->len());
    if (n >= mlen) {
      Mbuf* dead = head_;
      head_ = head_->next;
      dead->next = nullptr;
      pool_->free_one(dead);
      n -= mlen;
    } else {
      head_->trim_front(n);
      n = 0;
    }
  }
  if (head_ == nullptr) tail_ = nullptr;
}

Mbuf* Sockbuf::copy_range(std::uint64_t pos, std::size_t len) const {
  if (pos < base_pos_ || pos + len > end_pos())
    throw std::out_of_range("Sockbuf::copy_range: outside buffered stream");
  return mbuf::m_copym(head_, static_cast<int>(pos - base_pos_),
                       static_cast<int>(len));
}

Sockbuf::Cursor Sockbuf::seek(std::uint64_t pos) const {
  if (pos < base_pos_ || pos > end_pos())
    throw std::out_of_range("Sockbuf::seek: outside buffered stream");
  std::size_t off = pos - base_pos_;
  Mbuf* m = head_;
  while (m != nullptr && off >= static_cast<std::size_t>(m->len())) {
    // Stop *within* the mbuf when possible; at a boundary, land at the start
    // of the next mbuf.
    off -= static_cast<std::size_t>(m->len());
    m = m->next;
  }
  return Cursor{m, off};
}

MbufType Sockbuf::type_at(std::uint64_t pos) const {
  auto cur = seek(pos);
  if (cur.m == nullptr) throw std::out_of_range("Sockbuf::type_at: at end");
  return cur.m->type();
}

std::size_t Sockbuf::homogeneous_run(std::uint64_t pos, std::size_t maxlen) const {
  auto cur = seek(pos);
  if (cur.m == nullptr) return 0;
  const MbufType t = cur.m->type();
  std::size_t run = 0;
  std::size_t off = cur.off;
  for (Mbuf* m = cur.m; m != nullptr && run < maxlen; m = m->next) {
    if (m->type() != t) break;
    run += static_cast<std::size_t>(m->len()) - off;
    off = 0;
  }
  return run < maxlen ? run : maxlen;
}

std::size_t Sockbuf::mbuf_run(std::uint64_t pos, std::size_t maxlen) const {
  auto cur = seek(pos);
  if (cur.m == nullptr) return 0;
  const std::size_t rest = static_cast<std::size_t>(cur.m->len()) - cur.off;
  return rest < maxlen ? rest : maxlen;
}

}  // namespace nectar::net
