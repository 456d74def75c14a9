// Unit tests: CAB network memory, SDMA engine (gather, outboard checksum
// with seed/skip/insert, header rewrite, body-sum staging, alignment rules),
// the MDMA transmit/receive loop with auto-DMA, and the lifecycle both queued
// DMA engines share (reset abort, stall, injected errors).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "cab/cab_device.h"
#include "checksum/wire.h"
#include "hippi/link.h"
#include "mem/user_buffer.h"
#include "sim/rng.h"
#include "telemetry/telemetry.h"

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

// --- DMA engine lifecycle: reset abort, stall, injected errors -------------
//
// Driven directly rather than through a FaultInjector plan. At the fixture's
// rates an SDMA request of 1000 bytes takes 20 + 10 us, an MDMA transmit of
// 200 bytes takes 10 + 2 us, and a wire segment of a TSO burst 11 us. The
// abort tests also trace the engine: every queue and transfer span it opens
// must close exactly once.

using telemetry::Stage;

std::uint64_t spans(const telemetry::Telemetry& tel, Stage s) {
  return tel.stage_hist(s).count();
}

struct Completion {
  char tag;
  sim::Time at;
  bool failed;
};

// SDMA side: request `tag` copies `src` into slot `slot` of buffer `h`.
struct SdmaLog {
  sim::Simulator& simu;
  CabDevice& dev;
  std::vector<std::byte> src = std::vector<std::byte>(1000, std::byte{0x5a});
  Handle h;
  std::vector<Completion> done;

  SdmaLog(sim::Simulator& s, CabDevice& d, std::size_t slots)
      : simu(s), dev(d), h(*d.nm().alloc(slots * src.size())) {}

  void post(char tag, std::size_t slot) {
    SdmaRequest r;
    r.handle = h;
    r.cab_off = slot * src.size();
    r.segs.push_back(SdmaSeg{0, std::span<std::byte>(src)});
    r.on_complete = [this, tag](const SdmaRequest& d) {
      done.push_back(Completion{tag, simu.now(), d.failed});
    };
    ASSERT_TRUE(dev.sdma().post(std::move(r)));
  }
  // Whether slot `slot` holds `src` (true) or is still all zero (false).
  bool landed(std::size_t slot) const {
    auto b = dev.nm().bytes(h, slot * src.size(), src.size());
    if (std::equal(b.begin(), b.end(), src.begin())) return true;
    EXPECT_TRUE(std::all_of(b.begin(), b.end(), [](std::byte x) { return x == std::byte{0}; }));
    return false;
  }
};

// MDMA side: transmit `tag` sends a 200-byte frame from CAB 1 to CAB 2 whose
// bytes after the HIPPI header all carry the tag; `wire` lists the tags the
// receiver delivered.
struct MdmaLog {
  sim::Simulator& simu;
  CabDevice& tx;
  CabDevice& rx;
  std::vector<Completion> done;
  std::vector<char> wire;

  MdmaLog(sim::Simulator& s, CabDevice& t, CabDevice& r) : simu(s), tx(t), rx(r) {
    rx.mdma_recv().set_deliver([this](RecvDesc&& d) {
      wire.push_back(static_cast<char>(d.head.back()));
      if (d.handle) rx.nm().release(*d.handle);
    });
  }
  void post(char tag, std::size_t len = 200, std::size_t tso_hdr = 0,
            std::size_t tso_seg = 0) {
    std::vector<std::byte> pkt(len, static_cast<std::byte>(tag));
    hippi::write_header(pkt, hippi::FrameHeader{2, 1, hippi::kTypeIp, 0,
                                                static_cast<std::uint32_t>(len - 60)});
    auto h = tx.nm().alloc(len);
    ASSERT_TRUE(h);
    std::memcpy(tx.nm().bytes(*h, 0, len).data(), pkt.data(), len);
    MdmaXmit::Request r;
    r.handle = *h;
    r.len = len;
    r.tso_hdr_len = tso_hdr;
    r.tso_seg_payload = tso_seg;
    const Handle hh = *h;
    r.on_complete = [this, tag, hh] {
      done.push_back(Completion{tag, simu.now(), false});
      tx.nm().release(hh);
    };
    tx.mdma_xmit().post(std::move(r));
  }
};

TEST_F(CabFixture, SdmaAbortAllFailsQueuedAtOnceAndInFlightAtItsEnd) {
  CabDevice dev(simu, wire, 1, cfg);
  SdmaLog s(simu, dev, 4);
  telemetry::Telemetry tel(simu);
  dev.sdma().set_telemetry(&tel, tel.register_process("cab"));
  s.post('a', 0);  // on the bus until t = 30 us
  s.post('b', 1);
  s.post('c', 2);
  simu.run_until(sim::usec(10));
  dev.sdma().abort_all();
  // The queued two fail at once, in post order.
  ASSERT_EQ(s.done.size(), 2u);
  EXPECT_EQ(s.done[0].tag, 'b');
  EXPECT_EQ(s.done[1].tag, 'c');
  for (const auto& c : s.done) {
    EXPECT_EQ(c.at, sim::usec(10));
    EXPECT_TRUE(c.failed);
  }
  EXPECT_EQ(spans(tel, Stage::kSdmaQueue), 3u);
  EXPECT_EQ(spans(tel, Stage::kSdmaXfer), 0u);
  // A request posted right after the reset starts at once and completes.
  s.post('d', 3);
  simu.run();
  ASSERT_EQ(s.done.size(), 4u);
  EXPECT_EQ(s.done[2].tag, 'a');  // once, at its original end time
  EXPECT_EQ(s.done[2].at, sim::usec(30));
  EXPECT_TRUE(s.done[2].failed);
  EXPECT_EQ(s.done[3].tag, 'd');
  EXPECT_EQ(s.done[3].at, sim::usec(40));
  EXPECT_FALSE(s.done[3].failed);
  EXPECT_FALSE(s.landed(0));
  EXPECT_FALSE(s.landed(1));
  EXPECT_FALSE(s.landed(2));
  EXPECT_TRUE(s.landed(3));
  EXPECT_EQ(dev.sdma().stats().aborted, 3u);
  EXPECT_EQ(dev.sdma().stats().requests, 4u);
  EXPECT_EQ(dev.sdma().stats().errors, 0u);
  EXPECT_EQ(dev.sdma().stats().bytes_to_cab, 1000u);
  EXPECT_TRUE(dev.sdma().idle());
  EXPECT_EQ(spans(tel, Stage::kSdmaQueue), 4u);
  EXPECT_EQ(spans(tel, Stage::kSdmaXfer), 2u);
  EXPECT_EQ(tel.open_spans(), 0u);
  EXPECT_EQ(tel.orphan_ends(), 0u);
  dev.nm().release(s.h);
}

TEST_F(CabFixture, MdmaAbortAllFailsQueuedAtOnceAndInFlightAtItsEnd) {
  CabDevice tx(simu, wire, 1, cfg);
  CabDevice rx(simu, wire, 2, cfg);
  MdmaLog m(simu, tx, rx);
  telemetry::Telemetry tel(simu);
  tx.mdma_xmit().set_telemetry(&tel, tel.register_process("tx"));
  m.post('a');  // serializing until t = 12 us
  m.post('b');
  m.post('c');
  simu.run_until(sim::usec(5));
  tx.mdma_xmit().abort_all();
  ASSERT_EQ(m.done.size(), 2u);
  EXPECT_EQ(m.done[0].tag, 'b');
  EXPECT_EQ(m.done[1].tag, 'c');
  EXPECT_EQ(m.done[0].at, sim::usec(5));
  EXPECT_EQ(m.done[1].at, sim::usec(5));
  m.post('d');
  simu.run();
  ASSERT_EQ(m.done.size(), 4u);
  EXPECT_EQ(m.done[2].tag, 'a');
  EXPECT_EQ(m.done[2].at, sim::usec(12));
  EXPECT_EQ(m.done[3].tag, 'd');
  EXPECT_EQ(m.done[3].at, sim::usec(17));
  EXPECT_EQ(m.wire, std::vector<char>{'d'});
  EXPECT_EQ(tx.mdma_xmit().stats().aborted, 3u);
  EXPECT_EQ(tx.mdma_xmit().stats().packets, 1u);
  EXPECT_EQ(tx.mdma_xmit().stats().errors, 0u);
  EXPECT_TRUE(tx.mdma_xmit().idle());
  EXPECT_EQ(tx.nm().live_packets(), 0u);
  EXPECT_EQ(spans(tel, Stage::kMdmaQueue), 4u);
  EXPECT_EQ(spans(tel, Stage::kMdmaXfer), 2u);
  EXPECT_EQ(tel.open_spans(), 0u);
  EXPECT_EQ(tel.orphan_ends(), 0u);
}

TEST_F(CabFixture, SdmaStallHoldsPostedWorkUntilReleased) {
  CabDevice dev(simu, wire, 1, cfg);
  SdmaLog s(simu, dev, 2);
  s.post('a', 0);
  s.post('b', 1);
  dev.sdma().set_stalled(true);  // 'a' is already on the bus and finishes
  simu.at(sim::usec(100), [&] { dev.sdma().set_stalled(false); });
  simu.run_until(sim::usec(99));
  ASSERT_EQ(s.done.size(), 1u);
  EXPECT_EQ(s.done[0].at, sim::usec(30));
  EXPECT_FALSE(dev.sdma().idle());
  EXPECT_FALSE(s.landed(1));
  simu.run();
  ASSERT_EQ(s.done.size(), 2u);
  EXPECT_EQ(s.done[1].tag, 'b');
  EXPECT_EQ(s.done[1].at, sim::usec(130));
  EXPECT_FALSE(s.done[1].failed);
  EXPECT_TRUE(s.landed(1));
  dev.nm().release(s.h);
}

TEST_F(CabFixture, MdmaStallHoldsPostedWorkUntilReleased) {
  CabDevice tx(simu, wire, 1, cfg);
  CabDevice rx(simu, wire, 2, cfg);
  MdmaLog m(simu, tx, rx);
  m.post('a');
  m.post('b');
  tx.mdma_xmit().set_stalled(true);
  simu.at(sim::usec(100), [&] { tx.mdma_xmit().set_stalled(false); });
  simu.run_until(sim::usec(99));
  ASSERT_EQ(m.done.size(), 1u);
  EXPECT_EQ(m.done[0].at, sim::usec(12));
  EXPECT_EQ(m.wire, std::vector<char>{'a'});
  EXPECT_FALSE(tx.mdma_xmit().idle());
  simu.run();
  ASSERT_EQ(m.done.size(), 2u);
  EXPECT_EQ(m.done[1].tag, 'b');
  EXPECT_EQ(m.done[1].at, sim::usec(112));
  EXPECT_EQ(m.wire, (std::vector<char>{'a', 'b'}));
}

TEST_F(CabFixture, SdmaInjectedErrorsFailExactlyTheNextTwo) {
  CabDevice dev(simu, wire, 1, cfg);
  SdmaLog s(simu, dev, 3);
  dev.sdma().inject_errors(2);
  s.post('a', 0);
  s.post('b', 1);
  s.post('c', 2);
  simu.run();
  ASSERT_EQ(s.done.size(), 3u);
  EXPECT_TRUE(s.done[0].failed);
  EXPECT_TRUE(s.done[1].failed);
  EXPECT_FALSE(s.done[2].failed);
  EXPECT_FALSE(s.landed(0));
  EXPECT_FALSE(s.landed(1));
  EXPECT_TRUE(s.landed(2));
  EXPECT_EQ(dev.sdma().stats().errors, 2u);
  EXPECT_EQ(dev.sdma().stats().requests, 3u);
  EXPECT_EQ(dev.sdma().stats().bytes_to_cab, 1000u);
  dev.nm().release(s.h);
}

TEST_F(CabFixture, MdmaInjectedErrorsFailExactlyTheNextTwo) {
  CabDevice tx(simu, wire, 1, cfg);
  CabDevice rx(simu, wire, 2, cfg);
  MdmaLog m(simu, tx, rx);
  tx.mdma_xmit().inject_errors(2);
  m.post('a');
  m.post('b');
  m.post('c');
  simu.run();
  ASSERT_EQ(m.done.size(), 3u);  // completions still fire
  EXPECT_EQ(m.wire, std::vector<char>{'c'});
  EXPECT_EQ(tx.mdma_xmit().stats().errors, 2u);
  EXPECT_EQ(tx.mdma_xmit().stats().packets, 1u);
  EXPECT_EQ(tx.nm().live_packets(), 0u);
}

TEST_F(CabFixture, MdmaAbortMidTsoFanoutKeepsUnsentSegmentsOffTheWire) {
  CabDevice tx(simu, wire, 1, cfg);
  CabDevice rx(simu, wire, 2, cfg);
  MdmaLog m(simu, tx, rx);
  telemetry::Telemetry tel(simu);
  tx.mdma_xmit().set_telemetry(&tel, tel.register_process("tx"));
  // 100 header bytes (HIPPI + IP + TCP) and 3000 payload bytes cut into three
  // segments that leave the engine at t = 21, 32 and 43 us.
  m.post('t', 3100, 100, 1000);
  simu.at(sim::usec(25), [&] { tx.mdma_xmit().abort_all(); });
  simu.run();
  ASSERT_EQ(m.done.size(), 1u);
  EXPECT_EQ(m.done[0].at, sim::usec(43));
  EXPECT_EQ(m.wire, std::vector<char>{'t'});
  EXPECT_EQ(tx.mdma_xmit().stats().tso_requests, 1u);
  EXPECT_EQ(tx.mdma_xmit().stats().tso_wire_segs, 1u);
  EXPECT_EQ(tx.mdma_xmit().stats().packets, 1u);
  EXPECT_EQ(tx.mdma_xmit().stats().aborted, 1u);
  EXPECT_TRUE(tx.mdma_xmit().idle());
  EXPECT_EQ(tx.nm().live_packets(), 0u);
  EXPECT_EQ(spans(tel, Stage::kTsoFanout), 1u);
  EXPECT_EQ(spans(tel, Stage::kMdmaXfer), 1u);
  EXPECT_EQ(tel.open_spans(), 0u);
  EXPECT_EQ(tel.orphan_ends(), 0u);
}

}  // namespace
}  // namespace nectar::cab
