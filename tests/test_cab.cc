// Unit tests: CAB network memory, SDMA engine (gather, outboard checksum
// with seed/skip/insert, header rewrite, body-sum staging, alignment rules),
// and the MDMA transmit/receive loop with auto-DMA.
#include <gtest/gtest.h>

#include <cstring>

#include "cab/cab_device.h"
#include "checksum/wire.h"
#include "hippi/link.h"
#include "mem/user_buffer.h"
#include "sim/rng.h"

namespace nectar::cab {
namespace {

TEST(NetworkMemory, AllocReleaseLifecycle) {
  NetworkMemory nm(64 * 1024, 4096);
  auto h = nm.alloc(10000);  // 3 pages
  ASSERT_TRUE(h);
  EXPECT_EQ(nm.packet_len(*h), 10000u);
  EXPECT_EQ(nm.free_bytes(), 64 * 1024 - 3 * 4096u);
  EXPECT_EQ(nm.live_packets(), 1u);
  nm.release(*h);
  EXPECT_EQ(nm.free_bytes(), 64u * 1024);
  EXPECT_THROW((void)nm.packet_len(*h), std::out_of_range);  // dead handle
}

TEST(NetworkMemory, RefcountSharing) {
  NetworkMemory nm(64 * 1024);
  auto h = nm.alloc(4096);
  nm.retain(*h);
  EXPECT_EQ(nm.refcount(*h), 2);
  nm.release(*h);
  EXPECT_EQ(nm.live_packets(), 1u);  // still alive
  nm.release(*h);
  EXPECT_EQ(nm.live_packets(), 0u);
}

TEST(NetworkMemory, ExhaustionReturnsNullopt) {
  NetworkMemory nm(16 * 1024, 4096);
  auto a = nm.alloc(8192);
  auto b = nm.alloc(8192);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_FALSE(nm.alloc(1));
  EXPECT_EQ(nm.alloc_failures(), 1u);
  nm.release(*a);
  EXPECT_TRUE(nm.alloc(8192));
}

TEST(NetworkMemory, PacketsStartOnPageBoundaries) {
  // §2.2: "packets must start on a page boundary in CAB memory".
  NetworkMemory nm(64 * 1024, 4096);
  auto a = nm.alloc(100);   // rounds to a full page
  auto b = nm.alloc(100);
  auto sa = nm.bytes(*a, 0, 1);
  auto sb = nm.bytes(*b, 0, 1);
  EXPECT_EQ((sb.data() - sa.data()) % 4096, 0);
}

TEST(NetworkMemory, HandleReuseAfterRelease) {
  NetworkMemory nm(64 * 1024);
  auto a = nm.alloc(4096);
  nm.release(*a);
  auto b = nm.alloc(4096);
  ASSERT_TRUE(b);
  EXPECT_EQ(*a, *b);  // slot recycled
  nm.release(*b);
}

struct CabFixture : ::testing::Test {
  sim::Simulator simu;
  hippi::DirectWire wire{simu};
  CabConfig cfg;
  CabFixture() {
    cfg.memory_bytes = 1u << 20;
    cfg.sdma.bandwidth_bps = 100e6;  // fast for unit tests
  }
};

TEST_F(CabFixture, SdmaGatherWithChecksumInsertion) {
  CabDevice dev(simu, wire, 1, cfg);
  mem::AddressSpace as("u");
  mem::UserBuffer data(as, 1000);
  data.fill_pattern(3);

  // Build a fake packet: 80-byte header block + 1000 bytes of user data.
  std::vector<std::byte> hdr(80, std::byte{0});
  // Seed goes in the "checksum field" at offset 36 (fold of pseudo-ish sum).
  const std::uint16_t seed = 0x1234;
  wire::store_be16(hdr.data() + 36, seed);

  auto h = dev.nm().alloc(1080);
  SdmaRequest req;
  req.handle = *h;
  req.segs.push_back(SdmaSeg{0, std::span<std::byte>(hdr)});
  req.segs.push_back(SdmaSeg{data.addr(), data.view()});
  req.csum_enable = true;
  req.skip_words = 20;  // skip the 80-byte header
  req.csum_offset = 36;
  bool completed = false;
  req.on_complete = [&](const SdmaRequest&) { completed = true; };
  ASSERT_TRUE(dev.sdma().post(std::move(req)));
  simu.run();
  ASSERT_TRUE(completed);

  // Bytes landed intact.
  auto out = dev.nm().bytes(*h, 80, 1000);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.view().begin()));
  // Checksum = finish(seed + body sum), and the body sum was saved.
  const std::uint32_t body = checksum::ones_sum(data.view());
  const std::uint16_t expect = checksum::finish(seed + body);
  EXPECT_EQ(wire::load_be16(dev.nm().bytes(*h, 36, 2).data()), expect);
  ASSERT_TRUE(dev.nm().body_sum(*h));
  EXPECT_EQ(checksum::fold(*dev.nm().body_sum(*h)), checksum::fold(body));
  dev.nm().release(*h);
}

TEST_F(CabFixture, SdmaHeaderRewriteReusesSavedBodySum) {
  CabDevice dev(simu, wire, 1, cfg);
  mem::AddressSpace as("u");
  mem::UserBuffer data(as, 512);
  data.fill_pattern(5);

  auto h = dev.nm().alloc(80 + 512);
  // Stage the body only (as copy_in does): saved body sum, untouched header.
  {
    SdmaRequest req;
    req.handle = *h;
    req.cab_off = 80;
    req.segs.push_back(SdmaSeg{data.addr(), data.view()});
    req.csum_enable = true;
    req.body_sum_only = true;
    ASSERT_TRUE(dev.sdma().post(std::move(req)));
    simu.run();
  }
  // Now write a header with a fresh seed via header_rewrite.
  std::vector<std::byte> hdr(80, std::byte{0});
  const std::uint16_t seed = 0x4242;
  wire::store_be16(hdr.data() + 36, seed);
  {
    SdmaRequest req;
    req.handle = *h;
    req.segs.push_back(SdmaSeg{0, std::span<std::byte>(hdr)});
    req.csum_enable = true;
    req.header_rewrite = true;
    req.skip_words = 20;
    req.csum_offset = 36;
    ASSERT_TRUE(dev.sdma().post(std::move(req)));
    simu.run();
  }
  const std::uint16_t expect =
      checksum::finish(seed + checksum::ones_sum(data.view()));
  EXPECT_EQ(wire::load_be16(dev.nm().bytes(*h, 36, 2).data()), expect);
  dev.nm().release(*h);
}

TEST_F(CabFixture, SdmaRejectsMisalignedHostAddress) {
  CabDevice dev(simu, wire, 1, cfg);
  std::vector<std::byte> buf(64);
  auto h = dev.nm().alloc(64);
  SdmaRequest req;
  req.handle = *h;
  req.segs.push_back(SdmaSeg{0x1002, std::span<std::byte>(buf)});  // odd vaddr
  EXPECT_THROW((void)dev.sdma().post(std::move(req)), std::logic_error);
  dev.nm().release(*h);
}

TEST_F(CabFixture, SdmaTimingMatchesBandwidth) {
  cfg.sdma.bandwidth_bps = 1e6;  // 1 MB/s
  cfg.sdma.setup = sim::usec(10);
  CabDevice dev(simu, wire, 1, cfg);
  std::vector<std::byte> buf(1000);
  auto h = dev.nm().alloc(1000);
  SdmaRequest req;
  req.handle = *h;
  req.segs.push_back(SdmaSeg{0, std::span<std::byte>(buf)});
  ASSERT_TRUE(dev.sdma().post(std::move(req)));
  simu.run();
  EXPECT_EQ(simu.now(), sim::usec(10) + sim::msec(1.0));
  dev.nm().release(*h);
}

TEST_F(CabFixture, SdmaQueueBackpressure) {
  cfg.sdma.queue_depth = 2;
  CabDevice dev(simu, wire, 1, cfg);
  std::vector<std::byte> buf(64);
  auto h = dev.nm().alloc(64);
  auto mk = [&] {
    SdmaRequest r;
    r.handle = *h;
    r.segs.push_back(SdmaSeg{0, std::span<std::byte>(buf)});
    return r;
  };
  EXPECT_TRUE(dev.sdma().post(mk()));   // running
  EXPECT_TRUE(dev.sdma().post(mk()));   // queued (1 slot used by runner)
  EXPECT_FALSE(dev.sdma().post(mk()));  // full
  simu.run();
  EXPECT_TRUE(dev.sdma().idle());
  EXPECT_TRUE(dev.sdma().post(mk()));
  simu.run();
  dev.nm().release(*h);
}

TEST_F(CabFixture, MdmaLoopbackWithAutoDmaSplit) {
  // Transmit a packet from CAB 1 to CAB 2; the receiver auto-DMAs the first
  // L words and keeps the rest outboard, with the hardware checksum covering
  // data from word 20.
  CabDevice tx(simu, wire, 1, cfg);
  CabDevice rx(simu, wire, 2, cfg);
  rx.mdma_recv().set_autodma_words(64);  // 256 bytes
  rx.mdma_recv().set_rx_skip_words(20);

  std::optional<RecvDesc> got;
  rx.mdma_recv().set_deliver([&](RecvDesc&& d) { got = std::move(d); });

  const std::size_t total = 2000;
  sim::Rng rng(11);
  std::vector<std::byte> pkt(total);
  rng.fill(pkt);
  hippi::write_header(pkt, hippi::FrameHeader{2, 1, hippi::kTypeIp, 0,
                                              static_cast<std::uint32_t>(total - 60)});
  auto h = tx.nm().alloc(total);
  std::memcpy(tx.nm().bytes(*h, 0, total).data(), pkt.data(), total);

  MdmaXmit::Request mr;
  mr.handle = *h;
  mr.len = total;
  bool tx_done = false;
  mr.on_complete = [&] { tx_done = true; };
  tx.mdma_xmit().post(mr);
  simu.run();

  ASSERT_TRUE(tx_done);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->total_len, total);
  EXPECT_EQ(got->head.size(), 256u);
  EXPECT_TRUE(std::equal(got->head.begin(), got->head.end(), pkt.begin()));
  ASSERT_TRUE(got->handle);  // residue outboard
  auto rest = rx.nm().bytes(*got->handle, 256, total - 256);
  EXPECT_TRUE(std::equal(rest.begin(), rest.end(), pkt.begin() + 256));
  // Hardware checksum covers bytes [80, total).
  const std::uint32_t expect =
      checksum::ones_sum(std::span<const std::byte>(pkt).subspan(80));
  EXPECT_EQ(checksum::fold(got->hw_sum), checksum::fold(expect));
  rx.nm().release(*got->handle);
  tx.nm().release(*h);
}

TEST_F(CabFixture, SmallPacketFullyAutoDmaed) {
  CabDevice tx(simu, wire, 1, cfg);
  CabDevice rx(simu, wire, 2, cfg);
  rx.mdma_recv().set_autodma_words(176);  // 704 bytes, the paper's value

  std::optional<RecvDesc> got;
  rx.mdma_recv().set_deliver([&](RecvDesc&& d) { got = std::move(d); });

  const std::size_t total = 500;
  std::vector<std::byte> pkt(total, std::byte{0x5a});
  hippi::write_header(pkt, hippi::FrameHeader{2, 1, hippi::kTypeIp, 0,
                                              static_cast<std::uint32_t>(total - 60)});
  auto h = tx.nm().alloc(total);
  std::memcpy(tx.nm().bytes(*h, 0, total).data(), pkt.data(), total);
  MdmaXmit::Request req;
  req.handle = *h;
  req.len = total;
  tx.mdma_xmit().post(std::move(req));
  simu.run();

  ASSERT_TRUE(got);
  EXPECT_FALSE(got->handle);  // no outboard residue
  EXPECT_EQ(got->head.size(), total);
  EXPECT_EQ(rx.nm().live_packets(), 0u);  // buffer released immediately
  EXPECT_EQ(rx.mdma_recv().stats().fully_autodma, 1u);
  tx.nm().release(*h);
}

TEST_F(CabFixture, RecvDropsWhenMemoryExhausted) {
  cfg.memory_bytes = 8 * 4096;
  CabDevice tx(simu, wire, 1, cfg);
  CabDevice rx(simu, wire, 2, cfg);
  int delivered = 0;
  rx.mdma_recv().set_deliver([&](RecvDesc&& d) {
    ++delivered;
    (void)d;  // never release the handle: hog receiver memory
  });
  const std::size_t total = 4 * 4096;
  for (int i = 0; i < 4; ++i) {
    std::vector<std::byte> pkt(total, std::byte{1});
    hippi::write_header(pkt, hippi::FrameHeader{2, 1, hippi::kTypeIp, 0, 0});
    auto h = tx.nm().alloc(total);
    ASSERT_TRUE(h);
    std::memcpy(tx.nm().bytes(*h, 0, total).data(), pkt.data(), total);
    const Handle hh = *h;
    tx.mdma_xmit().post(
        MdmaXmit::Request{hh, total, 0, [&tx, hh] { tx.nm().release(hh); }});
    simu.run();  // sequential sends: the sender's buffer recycles each time
  }
  EXPECT_EQ(delivered, 2);  // 8 pages hold two 4-page packets
  EXPECT_EQ(rx.mdma_recv().stats().drops_no_memory, 2u);
}

TEST_F(CabFixture, MdmaSnapshotIsolatesRetransmitRewrites) {
  // Once a packet is on the media, rewriting its outboard header must not
  // corrupt the in-flight copy.
  CabDevice tx(simu, wire, 1, cfg);
  CabDevice rx(simu, wire, 2, cfg);
  std::optional<RecvDesc> got;
  rx.mdma_recv().set_deliver([&](RecvDesc&& d) { got = std::move(d); });

  const std::size_t total = 200;
  std::vector<std::byte> pkt(total, std::byte{7});
  hippi::write_header(pkt, hippi::FrameHeader{2, 1, hippi::kTypeIp, 0, 140});
  auto h = tx.nm().alloc(total);
  std::memcpy(tx.nm().bytes(*h, 0, total).data(), pkt.data(), total);
  MdmaXmit::Request req;
  req.handle = *h;
  req.len = total;
  tx.mdma_xmit().post(std::move(req));
  // The MDMA snapshot happens at service start (already queued); mutate after
  // one engine step would be racy in real hardware — here we just verify the
  // delivered copy matches what was queued.
  simu.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(std::to_integer<int>(got->head[100]), 7);
  tx.nm().release(*h);
}

}  // namespace
}  // namespace nectar::cab
