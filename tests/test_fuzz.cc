// Property / fuzz tests:
//  * model-based mbuf fuzzing — random chain surgery checked against a plain
//    byte-vector model after every operation;
//  * TCP loss sweeps — parameterized over loss rate and seed, every transfer
//    byte-verified;
//  * sockbuf conversion fuzzing — random UIO->WCAB conversions preserve the
//    stream's descriptor map.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>

#include "apps/ttcp.h"
#include "cab/cab_device.h"
#include "checksum/wire.h"
#include "mbuf/mbuf_ops.h"
#include "net/headers.h"
#include "sim/rng.h"
#include "tests/test_util.h"

namespace nectar {
namespace {

// ---- model-based mbuf fuzz --------------------------------------------------

class MbufFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MbufFuzz, ChainOpsMatchByteVectorModel) {
  sim::Simulator simu;
  mbuf::MbufPool pool(simu);
  sim::Rng rng(GetParam());

  {
    mbuf::Mbuf* chain = nullptr;       // record under test
    std::vector<std::byte> model;      // reference

    auto rebuild_check = [&] {
      ASSERT_EQ(mbuf::m_length(chain), static_cast<int>(model.size()));
      if (!model.empty()) {
        std::vector<std::byte> out(model.size());
        mbuf::m_copydata(chain, 0, static_cast<int>(model.size()), out);
        ASSERT_EQ(out, model);
      }
    };

    // Seed with one mbuf so the chain head is stable.
    chain = pool.get();
    for (int op = 0; op < 400; ++op) {
      switch (rng.uniform_below(5)) {
        case 0: {  // append a random piece (inline or cluster)
          const std::size_t n = 1 + rng.uniform_below(6000);
          std::vector<std::byte> piece(n);
          rng.fill(piece);
          mbuf::Mbuf* m = n > mbuf::kMLen ? pool.get_cluster(false) : pool.get();
          m->append(piece);
          mbuf::m_cat(chain, m);
          model.insert(model.end(), piece.begin(), piece.end());
          break;
        }
        case 1: {  // trim front
          if (model.empty()) break;
          const std::size_t n = rng.uniform_below(model.size()) + 1;
          mbuf::m_adj(chain, static_cast<int>(n));
          model.erase(model.begin(), model.begin() + static_cast<long>(n));
          break;
        }
        case 2: {  // trim back
          if (model.empty()) break;
          const std::size_t n = rng.uniform_below(model.size()) + 1;
          mbuf::m_adj(chain, -static_cast<int>(n));
          model.resize(model.size() - n);
          break;
        }
        case 3: {  // copy a random range and byte-compare (shares clusters)
          if (model.size() < 2) break;
          const std::size_t off = rng.uniform_below(model.size() - 1);
          const std::size_t len = 1 + rng.uniform_below(model.size() - off - 1 + 1);
          mbuf::Mbuf* copy =
              mbuf::m_copym(chain, static_cast<int>(off), static_cast<int>(len));
          std::vector<std::byte> out(len);
          mbuf::m_copydata(copy, 0, static_cast<int>(len), out);
          ASSERT_TRUE(std::equal(out.begin(), out.end(), model.begin() + off));
          pool.free_chain(copy);
          break;
        }
        case 4: {  // pullup a prefix
          const std::size_t limit = std::min<std::size_t>(model.size(), mbuf::kMHLen);
          if (limit == 0) break;
          const std::size_t n = 1 + rng.uniform_below(limit);
          chain = mbuf::m_pullup(chain, static_cast<int>(n));
          break;
        }
      }
      rebuild_check();
      // Checksum property on every 10th op: chain checksum == flat checksum.
      if (op % 10 == 0 && !model.empty()) {
        ASSERT_EQ(checksum::fold(mbuf::in_cksum_range(
                      chain, 0, static_cast<int>(model.size()))),
                  checksum::fold(checksum::ones_sum(model)));
      }
    }
    pool.free_chain(chain);
  }
  EXPECT_EQ(pool.in_use(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbufFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---- TCP under loss ---------------------------------------------------------

struct LossCase {
  double rate;
  std::uint64_t seed;
  socket::CopyPolicy policy;
};

void PrintTo(const LossCase& c, std::ostream* os) {
  *os << "rate=" << c.rate << " seed=" << c.seed
      << " policy=" << static_cast<int>(c.policy);
}

class TcpLossSweep : public ::testing::TestWithParam<LossCase> {};

TEST_P(TcpLossSweep, TransfersIntactUnderLoss) {
  const LossCase c = GetParam();
  core::TestbedOptions opts;
  opts.loss_rate = c.rate;
  opts.loss_seed = c.seed;
  core::Testbed tb(opts);
  apps::TtcpConfig cfg;
  cfg.policy = c.policy;
  cfg.write_size = 64 * 1024;
  cfg.total_bytes = 1024 * 1024;
  cfg.verify_data = true;
  cfg.deadline = 1200 * sim::kSecond;
  auto r = apps::run_ttcp(tb, cfg);
  ASSERT_TRUE(r.completed) << "loss=" << c.rate << " seed=" << c.seed;
  EXPECT_EQ(r.bytes, cfg.total_bytes);
  EXPECT_EQ(r.data_errors, 0u);
  // Retransmissions are only guaranteed when the fabric actually dropped
  // something (at low rates a 1 MB transfer can sail through), and dropped
  // pure ACKs recover via later cumulative ACKs without retransmitting.
  ASSERT_NE(tb.lossy, nullptr);
  if (c.rate >= 0.05) {
    EXPECT_GT(tb.lossy->dropped(), 0u);
  }
  if (r.sender_tcp.rexmt_segs == 0 && r.sender_tcp.rexmt_timeouts == 0) {
    EXPECT_LE(tb.lossy->dropped(), 60u);  // else something recovered wrongly
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, TcpLossSweep,
    ::testing::Values(
        LossCase{0.005, 1, socket::CopyPolicy::kAlwaysSingleCopy},
        LossCase{0.02, 2, socket::CopyPolicy::kAlwaysSingleCopy},
        LossCase{0.05, 3, socket::CopyPolicy::kAlwaysSingleCopy},
        LossCase{0.10, 4, socket::CopyPolicy::kAlwaysSingleCopy},
        LossCase{0.02, 5, socket::CopyPolicy::kNeverSingleCopy},
        LossCase{0.05, 6, socket::CopyPolicy::kNeverSingleCopy}));

// ---- random write-size schedule ---------------------------------------------

class MixedWriteSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixedWriteSizes, RandomSizedWritesArriveInOrder) {
  // A sender issuing writes of random sizes (1 byte .. 100 KB) through the
  // single-copy path; the receiver sees one intact, ordered stream.
  core::Testbed tb;
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::SocketOptions so;
  so.policy = socket::CopyPolicy::kAuto;  // sizes straddle the threshold
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp, so);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp, so);
  s.listen(9100);

  sim::Rng rng(GetParam());
  std::vector<std::size_t> sizes;
  std::size_t total = 0;
  for (int i = 0; i < 40; ++i) {
    const std::size_t n = 1 + rng.uniform_below(100 * 1024);
    sizes.push_back(n);
    total += n;
  }

  bool done = false;
  std::size_t got = 0, errors = 0;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    if (!co_await s.accept(ctx)) co_return;
    mem::UserBuffer dst(pb.as, 128 * 1024);
    while (got < total) {
      const std::size_t n = co_await s.recv(ctx, dst.as_uio());
      if (n == 0) break;
      auto v = dst.view();
      for (std::size_t i = 0; i < n; ++i) {
        if (v[i] != mem::UserBuffer::pattern_byte(55, got + i)) ++errors;
      }
      got += n;
    }
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    if (!co_await c.connect(ctx, core::Testbed::kIpB, 9100)) co_return;
    mem::UserBuffer src(pa.as, 100 * 1024 + 8);
    std::size_t pos = 0;
    for (const std::size_t n : sizes) {
      // Stream position determines the pattern, so each write refills.
      auto v = src.view();
      for (std::size_t i = 0; i < n; ++i)
        v[i] = mem::UserBuffer::pattern_byte(55, pos + i);
      pos += co_await c.send(ctx, src.as_uio(0, n));
    }
    co_await c.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 600 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(got, total);
  EXPECT_EQ(errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedWriteSizes, ::testing::Values(7u, 11u, 19u));

// ---- large-segment offload: segmentation cuts -------------------------------
//
// Property: the slice checksums a staging SDMA saves (SegSums) recombine —
// through ChecksumEngine::combine and the MDMA fan-out — to exactly the
// ones-complement sums the byte-pair oracle (ones_sum_ref) produces over the
// same cut, for every cut geometry: odd-byte payloads, payloads straddling
// the fan-out budget, 1-byte packets, and stride-boundary ±1 lengths.

class TsoCutFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TsoCutFuzz, SavedSliceSumsMatchReference) {
  // NetworkMemory seg-sum bookkeeping against the oracle, odd strides too.
  sim::Rng rng(GetParam());
  cab::NetworkMemory nm(1u << 20, 4096);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t stride = 3 + rng.uniform_below(5000);
    const std::size_t len = 1 + rng.uniform_below(4 * stride);
    const std::size_t base = 4 * rng.uniform_below(30);
    auto h = nm.alloc(base + len);
    ASSERT_TRUE(h);
    std::vector<std::byte> payload(len);
    rng.fill(payload);
    std::memcpy(nm.bytes(*h, base, len).data(), payload.data(), len);

    std::vector<std::uint32_t> sums;
    for (std::size_t off = 0; off < len; off += stride) {
      const std::size_t n = std::min(stride, len - off);
      sums.push_back(checksum::ones_sum_ref(
          std::span<const std::byte>(payload.data() + off, n)));
    }
    nm.set_seg_sums(*h, base, stride, len, sums);

    for (std::size_t j = 0; j * stride < len; ++j) {
      const std::size_t off = j * stride;
      const std::size_t n = std::min(stride, len - off);
      // Exact slice lookup.
      const auto s = nm.seg_slice_sum(*h, base + off, n);
      ASSERT_TRUE(s);
      EXPECT_EQ(*s, sums[j]);
      // Misaligned or wrong-length lookups miss (fall back paths take over).
      EXPECT_FALSE(nm.seg_slice_sum(*h, base + off + 1, n));
      if (n > 1) {
        EXPECT_FALSE(nm.seg_slice_sum(*h, base + off, n - 1));
      }
      // Tail recombination: sums[j..] folded together must equal the oracle
      // over the raw tail bytes (this is the retransmit header-rewrite path).
      const auto tail = nm.tail_sum(*h, base + off);
      ASSERT_TRUE(tail);
      EXPECT_EQ(checksum::fold(*tail),
                checksum::fold(checksum::ones_sum_ref(
                    std::span<const std::byte>(payload.data() + off, len - off))))
          << "stride=" << stride << " len=" << len << " j=" << j;
    }
    nm.release(*h);
  }
}

TEST_P(TsoCutFuzz, FanOutSegmentsCarryReferenceChecksums) {
  // Wire-level property: post one multi-MTU packet through the MDMA TSO
  // engine and check every emitted wire segment against the oracle — header
  // fixups, sequence progression, flag masking, IP and TCP checksums, bytes.
  sim::Simulator simu;
  hippi::DirectWire wire{simu};
  cab::CabConfig cfg;
  cfg.memory_bytes = 1u << 20;
  cab::CabDevice tx(simu, wire, 1, cfg);
  cab::CabDevice rx(simu, wire, 2, cfg);
  rx.mdma_recv().set_autodma_words(64 * 1024 / 4);  // whole segments in head
  sim::Rng rng(GetParam());

  constexpr std::size_t kHl = 100;  // HIPPI 60 + IP 20 + TCP 20
  constexpr std::uint32_t kSrcIp = 0x0a000001, kDstIp = 0x0a000002;

  std::vector<cab::RecvDesc> got;
  rx.mdma_recv().set_deliver([&](cab::RecvDesc&& d) { got.push_back(std::move(d)); });

  const std::size_t stride = 2 * (300 + rng.uniform_below(2000));  // even, like an MSS
  const std::size_t cases[] = {1,          stride - 1, stride,     stride + 1,
                               2 * stride - 1, 2 * stride, 2 * stride + 1,
                               3 * stride + 1 + 2 * rng.uniform_below(stride / 2 - 1),
                               4 * stride};
  for (const std::size_t payload : cases) {
    got.clear();
    const std::uint32_t base_seq = rng.next() & 0xffffffffu;
    const std::size_t total = kHl + payload;
    auto h = tx.nm().alloc(total);
    ASSERT_TRUE(h);
    auto buf = tx.nm().bytes(*h, 0, total);
    std::fill(buf.begin(), buf.end(), std::byte{0});
    hippi::write_header(buf, hippi::FrameHeader{
        2, 1, hippi::kTypeIp, 0, static_cast<std::uint32_t>(40 + payload)});
    std::byte* b = buf.data();
    // IP header template.
    b[60] = std::byte{0x45};
    wire::store_be16(b + 62, static_cast<std::uint16_t>(
        std::min<std::size_t>(40 + payload, 0xffff)));
    b[69] = std::byte{6};
    wire::store_be32(b + 72, kSrcIp);
    wire::store_be32(b + 76, kDstIp);
    wire::store_be16(b + 70, checksum::finish(checksum::ones_sum(
        std::span<const std::byte>(b + 60, 20))));
    // TCP header template: ACK|PSH so the mask rule is observable.
    wire::store_be16(b + 80, 1234);
    wire::store_be16(b + 82, 5678);
    wire::store_be32(b + 84, base_seq);
    b[92] = std::byte{0x50};
    b[93] = std::byte{0x18};
    wire::store_be16(b + 94, 8192);
    // Random payload, odd bytes included.
    std::vector<std::byte> data(payload);
    rng.fill(data);
    std::memcpy(b + kHl, data.data(), payload);

    // Stage the slice sums exactly as the SDMA would (oracle-computed here).
    std::vector<std::uint32_t> sums;
    for (std::size_t off = 0; off < payload; off += stride)
      sums.push_back(checksum::ones_sum_ref(std::span<const std::byte>(
          data.data() + off, std::min(stride, payload - off))));
    tx.nm().set_seg_sums(*h, kHl, stride, payload, sums);

    cab::MdmaXmit::Request r;
    r.handle = *h;
    r.len = total;
    r.off = 0;
    r.tso_hdr_len = kHl;
    r.tso_seg_payload = stride;
    const cab::Handle hh = *h;
    r.on_complete = [&tx, hh] { tx.nm().release(hh); };
    tx.mdma_xmit().post(std::move(r));
    simu.run();

    const std::size_t nsegs = (payload + stride - 1) / stride;
    ASSERT_EQ(got.size(), nsegs) << "payload=" << payload;
    if (nsegs < 2) continue;  // single-MTU: the template goes out verbatim
    for (std::size_t i = 0; i < nsegs; ++i) {
      const std::size_t slice = std::min(stride, payload - i * stride);
      const cab::RecvDesc& d = got[i];
      ASSERT_EQ(d.total_len, kHl + slice);
      ASSERT_GE(d.head.size(), kHl + slice);
      const std::byte* s = d.head.data();
      // Link and IP lengths track the cut; IP header checksum is fresh.
      EXPECT_EQ(wire::load_be32(s + 12), 40 + slice);
      EXPECT_EQ(wire::load_be16(s + 62), 40 + slice);
      EXPECT_EQ(checksum::fold(checksum::ones_sum_ref(
                    std::span<const std::byte>(s + 60, 20))), 0xffffu);
      // Sequence advances by the stride; PSH only on the last segment.
      EXPECT_EQ(wire::load_be32(s + 84),
                base_seq + static_cast<std::uint32_t>(i * stride));
      EXPECT_EQ(std::to_integer<int>(s[93]), i + 1 == nsegs ? 0x18 : 0x10);
      // The wire TCP checksum bit-matches the oracle over the segment.
      const std::uint32_t pseudo = net::transport_pseudo_sum(
          kSrcIp, kDstIp, 6, static_cast<std::uint16_t>(20 + slice));
      EXPECT_EQ(checksum::fold(pseudo + checksum::ones_sum_ref(
                    std::span<const std::byte>(s + 80, 20 + slice))),
                0xffffu)
          << "payload=" << payload << " seg=" << i;
      // And the receive engine's own sum agrees (skip = 20 words).
      EXPECT_EQ(checksum::fold(pseudo + d.hw_sum), 0xffffu);
      // Payload bytes are the exact slice.
      EXPECT_TRUE(std::equal(s + kHl, s + kHl + slice, data.data() + i * stride));
    }
    // Engine accounting: one fan-out request, nsegs wire segments.
  }
  EXPECT_EQ(tx.nm().live_packets(), 0u);
  EXPECT_GT(tx.mdma_xmit().stats().tso_requests, 0u);
  // payload ∈ {1, stride-1, stride} rode the single-packet path.
  EXPECT_EQ(tx.mdma_xmit().stats().tso_wire_segs + 3,
            tx.mdma_xmit().stats().packets);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TsoCutFuzz,
                         ::testing::Values(2u, 3u, 5u, 7u, 9u));

}  // namespace
}  // namespace nectar
