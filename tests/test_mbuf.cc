// Unit tests: the mbuf framework, including the paper's M_UIO / M_WCAB
// descriptor types and the invariant that descriptor bytes are never
// host-readable.
#include <gtest/gtest.h>

#include "checksum/internet_checksum.h"
#include "mbuf/mbuf_ops.h"
#include "mem/user_buffer.h"
#include "sim/rng.h"

namespace nectar::mbuf {
namespace {

struct MbufFixture : ::testing::Test {
  sim::Simulator simu;
  MbufPool pool{simu};
  sim::Rng rng{1234};

  ~MbufFixture() override { EXPECT_EQ(pool.in_use(), 0); }

  Mbuf* bytes_mbuf(std::initializer_list<unsigned> v) {
    Mbuf* m = pool.get();
    std::vector<std::byte> tmp;
    for (unsigned x : v) tmp.push_back(static_cast<std::byte>(x));
    m->append(tmp);
    return m;
  }

  Mbuf* random_chain(std::size_t total, std::size_t piece) {
    Mbuf* head = nullptr;
    Mbuf** link = &head;
    std::size_t produced = 0;
    while (produced < total) {
      const std::size_t n = std::min(piece, total - produced);
      Mbuf* m = n > kMLen ? pool.get_cluster(false) : pool.get();
      std::vector<std::byte> tmp(n);
      rng.fill(tmp);
      m->append(tmp);
      *link = m;
      link = &m->next;
      produced += n;
    }
    if (head != nullptr) {
      head->add_flags(kMPktHdr);
      head->pkthdr.len = static_cast<int>(total);
    }
    return head;
  }
};

TEST_F(MbufFixture, GetAndFree) {
  Mbuf* m = pool.get();
  EXPECT_EQ(m->len(), 0);
  EXPECT_EQ(m->type(), MbufType::kData);
  EXPECT_EQ(pool.in_use(), 1);
  pool.free_chain(m);
  EXPECT_EQ(pool.in_use(), 0);
  EXPECT_EQ(pool.stats().allocs, 1u);
}

TEST_F(MbufFixture, HeaderMbufHasLeadingSpace) {
  Mbuf* m = pool.get_hdr();
  EXPECT_TRUE(m->has_pkthdr());
  EXPECT_EQ(m->leading_space(), kMLen - kMHLen);
  pool.free_chain(m);
}

TEST_F(MbufFixture, AppendPrependTrim) {
  Mbuf* m = pool.get_hdr();
  m->align_end(8);
  std::byte b[8] = {};
  b[0] = std::byte{1};
  m->append(b);
  EXPECT_EQ(m->len(), 8);
  m->prepend(4);
  EXPECT_EQ(m->len(), 12);
  m->trim_front(6);
  EXPECT_EQ(m->len(), 6);
  m->trim_back(2);
  EXPECT_EQ(m->len(), 4);
  EXPECT_THROW(m->trim_front(5), std::logic_error);
  pool.free_chain(m);
}

TEST_F(MbufFixture, ClusterCapacity) {
  Mbuf* m = pool.get_cluster(true);
  EXPECT_TRUE(m->uses_cluster());
  EXPECT_EQ(m->trailing_space(), kClBytes);
  pool.free_chain(m);
}

TEST_F(MbufFixture, MLengthAndCount) {
  Mbuf* chain = random_chain(20000, 8192);
  EXPECT_EQ(m_length(chain), 20000);
  EXPECT_EQ(m_count(chain), 3);
  pool.free_chain(chain);
}

TEST_F(MbufFixture, CopymSharesClusters) {
  Mbuf* chain = random_chain(16384, 8192);
  Mbuf* copy = m_copym(chain, 100, 12000);
  EXPECT_EQ(m_length(copy), 12000);
  // Shared storage: byte identity without byte copying.
  std::vector<std::byte> a(12000), b(12000);
  m_copydata(chain, 100, 12000, a);
  m_copydata(copy, 0, 12000, b);
  EXPECT_EQ(a, b);
  // Mutating the original shows through (proof of sharing).
  chain->data()[0] = std::byte{0};  // offset 0 not in the copy; use cluster:
  pool.free_chain(copy);
  pool.free_chain(chain);
}

TEST_F(MbufFixture, CopymWithPkthdr) {
  Mbuf* chain = random_chain(1000, 200);
  Mbuf* full = m_copym(chain, 0, 1000);
  EXPECT_TRUE(full->has_pkthdr());
  EXPECT_EQ(full->pkthdr.len, 1000);
  Mbuf* partial = m_copym(chain, 10, 100);
  EXPECT_FALSE(partial->has_pkthdr());
  pool.free_chain(full);
  pool.free_chain(partial);
  pool.free_chain(chain);
}

TEST_F(MbufFixture, CopymBeyondRecordThrows) {
  Mbuf* chain = random_chain(100, 100);
  EXPECT_THROW((void)m_copym(chain, 50, 51), std::logic_error);
  pool.free_chain(chain);
}

TEST_F(MbufFixture, AdjFrontAndBack) {
  Mbuf* chain = random_chain(1000, 300);
  std::vector<std::byte> before(1000);
  m_copydata(chain, 0, 1000, before);

  m_adj(chain, 350);  // drop 350 from front (crosses an mbuf boundary)
  EXPECT_EQ(m_length(chain), 650);
  EXPECT_EQ(chain->pkthdr.len, 650);
  std::vector<std::byte> mid(650);
  m_copydata(chain, 0, 650, mid);
  EXPECT_TRUE(std::equal(mid.begin(), mid.end(), before.begin() + 350));

  m_adj(chain, -400);  // drop 400 from back
  EXPECT_EQ(m_length(chain), 250);
  EXPECT_EQ(chain->pkthdr.len, 250);
  std::vector<std::byte> tail(250);
  m_copydata(chain, 0, 250, tail);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), before.begin() + 350));
  pool.free_chain(chain);
}

TEST_F(MbufFixture, PullupGathersLeadingBytes) {
  Mbuf* chain = random_chain(500, 60);  // many small mbufs
  std::vector<std::byte> before(200);
  m_copydata(chain, 0, 200, before);
  Mbuf* m = m_pullup(chain, 150);
  EXPECT_GE(m->len(), 150);
  EXPECT_EQ(m_length(m), 500);
  std::vector<std::byte> after(200);
  m_copydata(m, 0, 200, after);
  EXPECT_EQ(before, after);
  pool.free_chain(m);
}

TEST_F(MbufFixture, PullupTooLongThrows) {
  Mbuf* chain = random_chain(100, 100);
  EXPECT_THROW((void)m_pullup(chain, 101), std::logic_error);
  pool.free_chain(chain);
}

TEST_F(MbufFixture, PrependUsesLeadingSpaceOrNewMbuf) {
  Mbuf* m = pool.get_hdr();
  m->align_end(10);
  m->set_len(10);
  m->pkthdr.len = 10;
  const int count_before = m_count(m);
  Mbuf* p = m_prepend(m, 20);
  EXPECT_EQ(p, m);  // reused leading space
  EXPECT_EQ(m_count(p), count_before);
  EXPECT_EQ(p->pkthdr.len, 30);

  // Exhaust leading space -> new mbuf carries the pkthdr.
  Mbuf* q = m_prepend(p, static_cast<int>(p->leading_space()) + 8);
  EXPECT_NE(q, p);
  EXPECT_TRUE(q->has_pkthdr());
  EXPECT_FALSE(p->has_pkthdr());
  pool.free_chain(q);
}

TEST_F(MbufFixture, ChecksumOverChainMatchesFlat) {
  Mbuf* chain = random_chain(5000, 617);  // odd-sized pieces
  std::vector<std::byte> flat(5000);
  m_copydata(chain, 0, 5000, flat);
  EXPECT_EQ(checksum::fold(in_cksum_range(chain, 0, 5000)),
            checksum::fold(checksum::ones_sum(flat)));
  EXPECT_EQ(checksum::fold(in_cksum_range(chain, 123, 4000)),
            checksum::fold(checksum::ones_sum(
                std::span<const std::byte>(flat).subspan(123, 4000))));
  pool.free_chain(chain);
}

// ----- descriptor mbufs -----------------------------------------------------

struct DescriptorFixture : MbufFixture {
  mem::AddressSpace as{"user"};
};

TEST_F(DescriptorFixture, UioMbufBasics) {
  mem::UserBuffer buf(as, 1000);
  UioWcabHdr hdr;
  Mbuf* m = pool.get_uio(buf.as_uio(), 1000, hdr, false);
  EXPECT_EQ(m->type(), MbufType::kUio);
  EXPECT_TRUE(m->is_descriptor());
  EXPECT_EQ(m->len(), 1000);
  // The core invariant: descriptor bytes are not host-readable.
  EXPECT_THROW((void)m->data(), std::logic_error);
  EXPECT_THROW((void)in_cksum_range(m, 0, 10), std::logic_error);
  std::vector<std::byte> out(10);
  EXPECT_THROW(m_copydata(m, 0, 10, out), std::logic_error);
  pool.free_chain(m);
}

TEST_F(DescriptorFixture, UioTrimAdjustsDescriptor) {
  mem::UserBuffer buf(as, 1000);
  Mbuf* m = pool.get_uio(buf.as_uio(), 1000, UioWcabHdr{}, false);
  m->trim_front(100);
  EXPECT_EQ(m->len(), 900);
  EXPECT_EQ(m->uio().iov[0].base, buf.addr() + 100);
  m->trim_back(200);
  EXPECT_EQ(m->len(), 700);
  EXPECT_EQ(m->uio().total_len(), 700u);
  pool.free_chain(m);
}

TEST_F(DescriptorFixture, CopymSlicesUio) {
  mem::UserBuffer buf(as, 1000);
  Mbuf* m = pool.get_uio(buf.as_uio(), 1000, UioWcabHdr{}, true);
  m->pkthdr.len = 1000;
  Mbuf* s = m_copym(m, 250, 500);
  EXPECT_EQ(s->type(), MbufType::kUio);
  EXPECT_EQ(s->len(), 500);
  EXPECT_EQ(s->uio().iov[0].base, buf.addr() + 250);
  pool.free_chain(s);
  pool.free_chain(m);
}

struct FakeOwner final : OutboardOwner {
  int refs = 1;
  void outboard_retain(std::uint32_t) override { ++refs; }
  void outboard_release(std::uint32_t) override { --refs; }
};

TEST_F(DescriptorFixture, WcabFreeReleasesOutboard) {
  FakeOwner owner;
  Wcab w;
  w.owner = &owner;
  w.handle = 7;
  w.data_off = 100;
  w.valid = 400;
  Mbuf* m = pool.get_wcab(w, 400, UioWcabHdr{}, false);
  EXPECT_EQ(m->type(), MbufType::kWcab);
  EXPECT_THROW((void)m->data(), std::logic_error);
  pool.free_chain(m);
  EXPECT_EQ(owner.refs, 0);
}

TEST_F(DescriptorFixture, CopymSharesWcabWithRetain) {
  FakeOwner owner;
  Wcab w;
  w.owner = &owner;
  w.handle = 7;
  w.data_off = 100;
  w.valid = 400;
  Mbuf* m = pool.get_wcab(w, 400, UioWcabHdr{}, false);
  Mbuf* s = m_copym(m, 100, 200);
  EXPECT_EQ(owner.refs, 2);
  EXPECT_EQ(s->wcab().data_off, 200u);  // advanced by the slice offset
  EXPECT_EQ(s->wcab().valid, 200u);
  pool.free_chain(s);
  EXPECT_EQ(owner.refs, 1);
  pool.free_chain(m);
  EXPECT_EQ(owner.refs, 0);
}

TEST_F(DescriptorFixture, WcabTrimFrontAdvancesOffset) {
  FakeOwner owner;
  Wcab w;
  w.owner = &owner;
  w.data_off = 100;
  Mbuf* m = pool.get_wcab(w, 400, UioWcabHdr{}, false);
  m->trim_front(50);
  EXPECT_EQ(m->wcab().data_off, 150u);
  EXPECT_EQ(m->len(), 350);
  pool.free_chain(m);
}

// --- pool recycling (PR 2) ---------------------------------------------------

TEST_F(MbufFixture, RecycledNodeIsPristine) {
  Mbuf* m = pool.get_cluster(true);
  std::vector<std::byte> junk(100, std::byte{0xee});
  m->append(junk);
  m->trim_front(10);
  m->add_flags(kMEor);
  m->pkthdr.len = 12345;
  m->pkthdr.rx_hw_sum = 0xbeef;
  m->pkthdr.rx_hw_sum_valid = true;
  pool.free_chain(m);

  Mbuf* r = pool.get();
  EXPECT_EQ(r, m);  // came off the free-list...
  EXPECT_EQ(pool.stats().freelist_hits, 1u);
  // ...indistinguishable from a fresh node.
  EXPECT_EQ(r->type(), MbufType::kData);
  EXPECT_EQ(r->flags(), 0u);
  EXPECT_EQ(r->len(), 0);
  EXPECT_EQ(r->leading_space(), 0u);
  EXPECT_FALSE(r->uses_cluster());
  EXPECT_EQ(r->next, nullptr);
  EXPECT_EQ(r->pkthdr.len, 0);
  EXPECT_EQ(r->pkthdr.rcvif, nullptr);
  EXPECT_EQ(r->pkthdr.rx_hw_sum, 0u);
  EXPECT_FALSE(r->pkthdr.rx_hw_sum_valid);
  pool.free_chain(r);
}

TEST_F(MbufFixture, ClusterRecycling) {
  Mbuf* a = pool.get_cluster(false);
  const ExtBuf* buf = a->ext().get();
  pool.free_chain(a);
  EXPECT_EQ(pool.free_clusters(), 1u);
  Mbuf* b = pool.get_cluster(false);
  EXPECT_EQ(b->ext().get(), buf);  // same storage, control block intact
  EXPECT_EQ(pool.stats().cluster_freelist_hits, 1u);
  EXPECT_EQ(pool.free_clusters(), 0u);
  pool.free_chain(b);
}

TEST_F(MbufFixture, SharedClusterNotParkedUntilLastRef) {
  Mbuf* a = pool.get_cluster(false);
  std::vector<std::byte> data(64, std::byte{0x5a});
  a->append(data);
  Mbuf* b = pool.share_ext(*a, 0, 32);
  pool.free_chain(a);
  // b still references the cluster: it must not be handed out again.
  EXPECT_EQ(pool.free_clusters(), 0u);
  pool.free_chain(b);
  EXPECT_EQ(pool.free_clusters(), 1u);
}

TEST_F(MbufFixture, ArbitrarySizeExtIsNotRecycled) {
  Mbuf* m = pool.get_ext(512, false);
  pool.free_chain(m);
  EXPECT_EQ(pool.free_clusters(), 0u);  // only kClBytes buffers are pooled
  EXPECT_EQ(pool.free_nodes(), 1u);     // the node itself is
}

TEST_F(MbufFixture, InUseAndHighWaterExactThroughRecycling) {
  std::vector<Mbuf*> live;
  for (int i = 0; i < 8; ++i) live.push_back(pool.get());
  EXPECT_EQ(pool.in_use(), 8);
  for (Mbuf* m : live) pool.free_chain(m);
  live.clear();
  EXPECT_EQ(pool.in_use(), 0);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) live.push_back(pool.get());
    EXPECT_EQ(pool.in_use(), 4);
    for (Mbuf* m : live) pool.free_chain(m);
    live.clear();
    EXPECT_EQ(pool.in_use(), 0);
  }
  EXPECT_EQ(pool.stats().high_water, 8);
  // Rounds after the first were served entirely from the free-list.
  EXPECT_EQ(pool.stats().freelist_hits, 12u);
}

TEST_F(MbufFixture, DmaSyncDrain) {
  DmaSync sync(simu);
  sync.add(3);
  bool drained = false;
  auto waiter = [&]() -> sim::Task<void> {
    co_await sync.drain();
    drained = true;
  };
  sim::spawn(waiter());
  sync.done();
  sync.done();
  simu.run();
  EXPECT_FALSE(drained);
  sync.done();
  simu.run();
  EXPECT_TRUE(drained);
}

}  // namespace
}  // namespace nectar::mbuf
