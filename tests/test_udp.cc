// Unit/behaviour tests: UDP datagrams over both stack paths, checksum
// policy (hardware seed / software / disabled-on-fragmentation), datagram
// boundaries, port demultiplexing, single-copy writes whose datagram the CAB
// drops, and the receiver's copy-out retry and give-up.
#include <gtest/gtest.h>

#include "apps/ttcp.h"
#include "net/ip.h"
#include "net/udp.h"
#include "tests/test_util.h"

namespace nectar::net {
namespace {

using core::Testbed;
using core::TestbedOptions;
using socket::CopyPolicy;
using socket::Socket;
using socket::SocketOptions;

struct UdpFixture : ::testing::Test {
  Testbed tb;
  core::Host::Process& pa;
  core::Host::Process& pb;
  UdpFixture()
      : tb(TestbedOptions{}),
        pa(tb.a->create_process("utx")),
        pb(tb.b->create_process("urx")) {}

  // Send one datagram of `len` from A and receive it on B; returns received
  // length after verifying bytes.
  std::size_t round_trip(std::size_t len, SocketOptions so = {},
                         std::size_t misalign = 0,
                         socket::Socket::SockStats* tx_stats = nullptr) {
    Socket tx(tb.a->stack(), Socket::Proto::kUdp, so);
    Socket rx(tb.b->stack(), Socket::Proto::kUdp, so);
    tx.bind(3000);
    rx.bind(4000);
    std::size_t got = SIZE_MAX;
    std::size_t errors = 0;
    bool done = false;
    auto run = [&]() -> sim::Task<void> {
      auto ctx_a = pa.ctx();
      auto ctx_b = pb.ctx();
      mem::UserBuffer src(pa.as, len + misalign + 8, misalign);
      src.fill_pattern(7);
      mem::UserBuffer dst(pb.as, len + 8);
      auto send = [&]() -> sim::Task<void> {
        (void)co_await tx.sendto(ctx_a, src.as_uio(0, len), Testbed::kIpB, 4000);
      };
      sim::spawn(send());
      auto r = co_await rx.recvfrom(ctx_b, dst.as_uio());
      got = r.len;
      EXPECT_EQ(r.src, Testbed::kIpA);
      EXPECT_EQ(r.sport, 3000);
      for (std::size_t i = 0; i < got; ++i) {
        if (dst.view()[i] != mem::UserBuffer::pattern_byte(7, i)) ++errors;
      }
      done = true;
    };
    sim::spawn(run());
    tb.run_until_done(done, tb.sim.now() + 60 * sim::kSecond);
    EXPECT_TRUE(done);
    EXPECT_EQ(errors, 0u);
    if (tx_stats != nullptr) *tx_stats = tx.sock_stats();
    return got;
  }

  // Start `writers` single-copy sendto()s of `len` bytes from A at once, each
  // on its own socket, and run one second of simulated time. Returns how many
  // of the writes returned.
  std::size_t concurrent_single_copy_sendtos(std::size_t writers, std::size_t len) {
    SocketOptions so;
    so.policy = CopyPolicy::kAlwaysSingleCopy;
    std::vector<std::unique_ptr<Socket>> socks;
    std::vector<std::unique_ptr<mem::UserBuffer>> bufs;
    std::size_t returned = 0;
    auto send = [&](Socket& s, mem::UserBuffer& b) -> sim::Task<void> {
      auto ctx = pa.ctx();
      (void)co_await s.sendto(ctx, b.as_uio(), Testbed::kIpB, 4000);
      ++returned;
    };
    for (std::size_t i = 0; i < writers; ++i) {
      socks.push_back(std::make_unique<Socket>(tb.a->stack(), Socket::Proto::kUdp, so));
      socks.back()->bind(static_cast<std::uint16_t>(3000 + i));
      bufs.push_back(std::make_unique<mem::UserBuffer>(pa.as, len));
      sim::spawn(send(*socks.back(), *bufs.back()));
    }
    tb.run_until_done([&] { return returned == writers; }, tb.sim.now() + sim::kSecond);
    return returned;
  }

  // Deliver one single-copy datagram of `len` bytes to a socket on B, then
  // make the next `errors` SDMA transfers on B's CAB fail and read it: the
  // reader's copy-out meets the errors. Returns whether the read returned
  // within a minute; `bad` counts the bytes that differ from what was sent.
  bool read_under_sdma_errors(std::size_t len, std::uint32_t errors, std::size_t& bad) {
    SocketOptions so;
    so.policy = CopyPolicy::kAlwaysSingleCopy;
    Socket tx(tb.a->stack(), Socket::Proto::kUdp, so);
    Socket rx(tb.b->stack(), Socket::Proto::kUdp, so);
    tx.bind(3000);
    rx.bind(4000);
    mem::UserBuffer src(pa.as, len);
    src.fill_pattern(7);
    mem::UserBuffer dst(pb.as, len);
    auto send = [&]() -> sim::Task<void> {
      auto ctx = pa.ctx();
      (void)co_await tx.sendto(ctx, src.as_uio(), Testbed::kIpB, 4000);
    };
    sim::spawn(send());
    tb.run_until_done([&] { return tb.b->stack().udp().stats().in_datagrams == 1; },
                      tb.sim.now() + sim::kSecond);
    tb.cab_b->device().sdma().inject_errors(errors);
    bool done = false;
    auto recv = [&]() -> sim::Task<void> {
      auto ctx = pb.ctx();
      (void)co_await rx.recvfrom(ctx, dst.as_uio());
      done = true;
    };
    sim::spawn(recv());
    tb.run_until_done(done, tb.sim.now() + 60 * sim::kSecond);
    bad = 0;
    for (std::size_t i = 0; i < len; ++i)
      if (dst.view()[i] != mem::UserBuffer::pattern_byte(7, i)) ++bad;
    return done;
  }
};

TEST_F(UdpFixture, SmallDatagramCopyPath) {
  SocketOptions so;
  so.policy = CopyPolicy::kAuto;  // 1 KB < threshold -> copy path
  EXPECT_EQ(round_trip(1024, so), 1024u);
}

TEST_F(UdpFixture, LargeDatagramSingleCopyPath) {
  SocketOptions so;
  so.policy = CopyPolicy::kAlwaysSingleCopy;
  EXPECT_EQ(round_trip(30 * 1024, so), 30u * 1024);
  EXPECT_GT(tb.a->stack().udp().stats().hw_csum_tx, 0u);
}

TEST_F(UdpFixture, OversizeDatagramFragmentsSingleCopy) {
  // 100 KB > 32 KB MTU: fragments at IP, reassembles at B, checksum disabled
  // (outboard data cannot be software-checksummed across fragments).
  SocketOptions so;
  so.policy = CopyPolicy::kAlwaysSingleCopy;
  EXPECT_EQ(round_trip(60 * 1024, so), 60u * 1024);
  EXPECT_GT(tb.a->stack().ip().stats().ofragments, 0u);
  EXPECT_EQ(tb.b->stack().ip().stats().reassembled, 1u);
  EXPECT_GT(tb.a->stack().udp().stats().nocsum_tx, 0u);
}

TEST_F(UdpFixture, OversizeDatagramFragmentsCopyPath) {
  // Same size over the traditional path: software checksum over the whole
  // datagram survives fragmentation.
  SocketOptions so;
  so.policy = CopyPolicy::kNeverSingleCopy;
  so.udp_checksum = true;
  EXPECT_EQ(round_trip(60 * 1024, so), 60u * 1024);
  // Copy-path data is still kernel-resident, so even with hardware available
  // the fragmented datagram keeps a software checksum end to end.
  EXPECT_GT(tb.a->stack().udp().stats().sw_csum_tx, 0u);
  EXPECT_EQ(tb.b->stack().udp().stats().bad_checksum, 0u);
}

// A single-copy write returns once the driver has consumed or dropped its
// data: a datagram the CAB drops for want of outboard memory or of SDMA queue
// space still completes the writer's UIO counter and unpins its pages.
TEST_F(UdpFixture, SingleCopyWriteReturnsWhenOutboardMemoryExhausted) {
  tb.cab_a->device().nm().set_force_exhausted(true);
  EXPECT_EQ(concurrent_single_copy_sendtos(1, 8 * 1024), 1u);
  EXPECT_GT(tb.cab_a->if_stats.oerrors, 0u);
  EXPECT_GT(tb.cab_a->drv_stats.tx_no_memory, 0u);
  EXPECT_EQ(tb.a->vm().pinned_pages(), 0u);
}

TEST_F(UdpFixture, SingleCopyWritesReturnWhenSdmaQueueOverruns) {
  // 200 writers against the 128-deep SDMA command queue: the overflow is
  // rejected at post time.
  EXPECT_EQ(concurrent_single_copy_sendtos(200, 8 * 1024), 200u);
  EXPECT_GT(tb.cab_a->if_stats.oerrors, 0u);
  EXPECT_EQ(tb.a->vm().pinned_pages(), 0u);
}

// The receiving CAB's copy-out (§3) reposts a failed SDMA after a pause, and
// gives up loudly once its retry limit is spent so the reader never hangs.
TEST_F(UdpFixture, CopyOutRetriesFailedSdmaOnTheReceiver) {
  std::size_t bad = SIZE_MAX;
  EXPECT_TRUE(read_under_sdma_errors(30 * 1024, 3, bad));
  EXPECT_EQ(bad, 0u);  // every byte arrived intact
  EXPECT_EQ(tb.cab_b->rec_stats.copyout_retries, 3u);
  EXPECT_EQ(tb.cab_b->rec_stats.copyouts_failed, 0u);
}

TEST_F(UdpFixture, CopyOutGivesUpAfterRetryLimitAndReaderReturns) {
  std::size_t bad = 0;
  EXPECT_TRUE(read_under_sdma_errors(30 * 1024, 1'000'000, bad));
  EXPECT_GT(bad, 0u);  // the outboard bytes never arrived...
  EXPECT_GT(tb.cab_b->rec_stats.copyout_retries, 0u);
  EXPECT_EQ(tb.cab_b->rec_stats.copyouts_failed, 1u);  // ...and the loss is counted
  // The abandoned copy-out returned its outboard buffer and the reader's pins.
  EXPECT_EQ(tb.cab_b->device().nm().used_bytes(), 0u);
  EXPECT_EQ(tb.b->vm().pinned_pages(), 0u);
}

TEST_F(UdpFixture, UnalignedBufferFallsBack) {
  SocketOptions so;
  so.policy = CopyPolicy::kAuto;
  so.single_copy_threshold = 1024;
  socket::Socket::SockStats st;
  EXPECT_EQ(round_trip(16 * 1024, so, /*misalign=*/2, &st), 16u * 1024);
  EXPECT_EQ(st.single_copy_writes, 0u);  // §4.5 fallback to the copy path
  EXPECT_EQ(st.copy_writes, 1u);
  EXPECT_GT(st.unaligned_fallbacks, 0u);
}

TEST_F(UdpFixture, OverlargeDatagramRejected) {
  Socket tx(tb.a->stack(), Socket::Proto::kUdp);
  tx.bind(3000);
  bool threw = false, done = false;
  auto run = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    mem::UserBuffer src(pa.as, 70 * 1024);
    try {
      (void)co_await tx.sendto(ctx, src.as_uio(), Testbed::kIpB, 4000);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    done = true;
  };
  sim::spawn(run());
  tb.run_until_done(done, tb.sim.now() + 10 * sim::kSecond);
  EXPECT_TRUE(threw);
  EXPECT_EQ(tb.a->pool().in_use(), 0);
}

TEST_F(UdpFixture, DatagramTruncationToBufferSize) {
  Socket tx(tb.a->stack(), Socket::Proto::kUdp);
  Socket rx(tb.b->stack(), Socket::Proto::kUdp);
  tx.bind(3000);
  rx.bind(4000);
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    auto ctx_a = pa.ctx();
    auto ctx_b = pb.ctx();
    mem::UserBuffer src(pa.as, 4096);
    src.fill_pattern(9);
    auto send = [&]() -> sim::Task<void> {
      (void)co_await tx.sendto(ctx_a, src.as_uio(), Testbed::kIpB, 4000);
    };
    sim::spawn(send());
    mem::UserBuffer small(pb.as, 1000);
    auto r = co_await rx.recvfrom(ctx_b, small.as_uio());
    EXPECT_EQ(r.len, 1000u);  // datagram semantics: tail discarded
    done = true;
  };
  sim::spawn(run());
  tb.run_until_done(done, tb.sim.now() + 30 * sim::kSecond);
  EXPECT_TRUE(done);
}

TEST_F(UdpFixture, UnknownPortDropsAndCounts) {
  Socket tx(tb.a->stack(), Socket::Proto::kUdp);
  tx.bind(3000);
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    mem::UserBuffer src(pa.as, 256);
    (void)co_await tx.sendto(ctx, src.as_uio(), Testbed::kIpB, 9999);
    done = true;
  };
  sim::spawn(run());
  tb.run_until_done(done, tb.sim.now() + 30 * sim::kSecond);
  tb.sim.run();
  EXPECT_EQ(tb.b->stack().udp().stats().no_port, 1u);
}

TEST_F(UdpFixture, TwoSocketsDemuxByPort) {
  Socket tx(tb.a->stack(), Socket::Proto::kUdp);
  Socket rx1(tb.b->stack(), Socket::Proto::kUdp);
  Socket rx2(tb.b->stack(), Socket::Proto::kUdp);
  tx.bind(3000);
  rx1.bind(4001);
  rx2.bind(4002);
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    auto ctx_a = pa.ctx();
    auto ctx_b = pb.ctx();
    mem::UserBuffer one(pa.as, 128);
    mem::UserBuffer two(pa.as, 256);
    (void)co_await tx.sendto(ctx_a, one.as_uio(), Testbed::kIpB, 4001);
    (void)co_await tx.sendto(ctx_a, two.as_uio(), Testbed::kIpB, 4002);
    mem::UserBuffer buf(pb.as, 512);
    auto r1 = co_await rx1.recvfrom(ctx_b, buf.as_uio());
    auto r2 = co_await rx2.recvfrom(ctx_b, buf.as_uio());
    EXPECT_EQ(r1.len, 128u);
    EXPECT_EQ(r2.len, 256u);
    done = true;
  };
  sim::spawn(run());
  tb.run_until_done(done, tb.sim.now() + 30 * sim::kSecond);
  EXPECT_TRUE(done);
}

TEST_F(UdpFixture, DuplicatePortBindThrows) {
  Socket a(tb.b->stack(), Socket::Proto::kUdp);
  Socket b(tb.b->stack(), Socket::Proto::kUdp);
  a.bind(5000);
  EXPECT_THROW(b.bind(5000), std::invalid_argument);
}

TEST_F(UdpFixture, CorruptedDatagramDropped) {
  // Send a valid datagram, corrupt it on the wire via a hostile fabric...
  // simplest: inject a hand-built datagram with a wrong checksum directly.
  Socket rx(tb.b->stack(), Socket::Proto::kUdp);
  rx.bind(4000);
  net::KernCtx ctx{tb.b->intr_acct(), sim::Priority::Kernel};
  auto& pool = tb.b->pool();
  mbuf::Mbuf* pkt = pool.get_hdr();
  pkt->align_end(kUdpHdrLen + 8);
  std::byte raw[kUdpHdrLen + 8] = {};
  write_udp_header({raw, kUdpHdrLen}, UdpHeader{1, 4000, kUdpHdrLen + 8, 0xbad0});
  pkt->append(raw);
  pkt->pkthdr.len = kUdpHdrLen + 8;
  IpHeader ih;
  ih.src = Testbed::kIpA;
  ih.dst = Testbed::kIpB;
  ih.proto = kProtoUdp;
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    co_await tb.b->stack().transport_input(ctx, kProtoUdp, pkt, ih);
    done = true;
  };
  sim::spawn(run());
  tb.run_until_done(done, tb.sim.now() + sim::kSecond);
  EXPECT_EQ(tb.b->stack().udp().stats().bad_checksum, 1u);
  EXPECT_EQ(tb.b->stack().udp().stats().in_datagrams, 0u);
}

}  // namespace
}  // namespace nectar::net
