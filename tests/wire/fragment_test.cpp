// Tests for the IPv6 Fragment header codec and fragmentation/reassembly.
#include "wire/fragment.hpp"

#include <gtest/gtest.h>

namespace beholder6::wire {
namespace {

std::vector<std::uint8_t> make_packet(std::size_t payload) {
  std::vector<std::uint8_t> pkt;
  Ipv6Header ip;
  ip.next_header = static_cast<std::uint8_t>(Proto::kIcmp6);
  ip.hop_limit = 64;
  ip.src = Ipv6Addr::must_parse("2001:db8::1");
  ip.dst = Ipv6Addr::must_parse("2001:db8::2");
  ip.payload_length = static_cast<std::uint16_t>(payload);
  ip.encode(pkt);
  for (std::size_t i = 0; i < payload; ++i)
    pkt.push_back(static_cast<std::uint8_t>(i));
  return pkt;
}

/// Acquire callback for fragment_packet_into that appends a fresh buffer to
/// `out` per fragment.
auto append_to(std::vector<std::vector<std::uint8_t>>& out) {
  return [&out]() -> std::vector<std::uint8_t>& { return out.emplace_back(); };
}

TEST(FragmentHeaderCodec, RoundTrip) {
  FragmentHeader h;
  h.next_header = 58;
  h.offset = 123;
  h.more_fragments = true;
  h.identification = 0xdeadbeef;
  std::vector<std::uint8_t> buf;
  h.encode(buf);
  ASSERT_EQ(buf.size(), FragmentHeader::kSize);
  const auto d = FragmentHeader::decode(buf);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->next_header, 58);
  EXPECT_EQ(d->offset, 123);
  EXPECT_TRUE(d->more_fragments);
  EXPECT_EQ(d->identification, 0xdeadbeefu);
}

TEST(Fragmentation, SmallPacketPassesThrough) {
  const auto pkt = make_packet(100);
  std::vector<std::vector<std::uint8_t>> frags;
  fragment_packet_into(std::span(pkt), 42, kMinMtu, append_to(frags));
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0], pkt);
  EXPECT_FALSE(fragment_of(frags[0]));
}

TEST(Fragmentation, BigPacketSplitsWithSharedId) {
  const auto pkt = make_packet(2000);
  std::vector<std::vector<std::uint8_t>> frags;
  fragment_packet_into(std::span(pkt), 777, kMinMtu, append_to(frags));
  ASSERT_GE(frags.size(), 2u);
  for (const auto& f : frags) {
    EXPECT_LE(f.size(), kMinMtu);
    const auto h = fragment_of(f);
    ASSERT_TRUE(h);
    EXPECT_EQ(h->identification, 777u);
    EXPECT_EQ(h->next_header, 58);
  }
  // Exactly the last fragment has more_fragments == false.
  for (std::size_t i = 0; i < frags.size(); ++i)
    EXPECT_EQ(fragment_of(frags[i])->more_fragments, i + 1 < frags.size());
  // All non-final fragment payloads are multiples of 8 octets.
  for (std::size_t i = 0; i + 1 < frags.size(); ++i)
    EXPECT_EQ((frags[i].size() - Ipv6Header::kSize - FragmentHeader::kSize) % 8, 0u);
}

TEST(Fragmentation, ReassemblyRestoresOriginal) {
  const auto pkt = make_packet(3000);
  std::vector<std::vector<std::uint8_t>> frags;
  fragment_packet_into(std::span(pkt), 9, kMinMtu, append_to(frags));
  // Shuffle to prove order-independence.
  std::rotate(frags.begin(), frags.begin() + 1, frags.end());
  const auto whole = reassemble(frags);
  ASSERT_TRUE(whole);
  EXPECT_EQ(*whole, pkt);
}

TEST(Fragmentation, ReassemblyRejectsGapsAndMixedIds) {
  const auto pkt = make_packet(3000);
  std::vector<std::vector<std::uint8_t>> frags;
  fragment_packet_into(std::span(pkt), 9, kMinMtu, append_to(frags));
  ASSERT_GE(frags.size(), 3u);
  {
    auto missing = frags;
    missing.erase(missing.begin() + 1);
    EXPECT_FALSE(reassemble(missing));
  }
  {
    auto mixed = frags;
    std::vector<std::vector<std::uint8_t>> other;
    fragment_packet_into(std::span(pkt), 10, kMinMtu, append_to(other));
    mixed[1] = other[1];
    EXPECT_FALSE(reassemble(mixed));
  }
  EXPECT_FALSE(reassemble({}));
}

// Regression for the hot path: tools/check_noalloc.py caught the simnet
// reply path building fresh per-fragment vectors; it now encodes into
// caller-provided buffers, and a warm buffer set must be reused in place
// (no reallocation on the second pass).
TEST(Fragmentation, IntoBuffersReusesCapacity) {
  // Pool-like acquire: reuse buffers in order, clearing but keeping storage.
  std::vector<std::vector<std::uint8_t>> bufs;
  std::size_t next = 0;
  auto acquire = [&]() -> std::vector<std::uint8_t>& {
    if (next == bufs.size()) bufs.emplace_back();
    auto& b = bufs[next++];
    b.clear();
    return b;
  };

  // Warm second pass over a multi-fragment packet: every buffer's storage
  // must be reused in place.
  const auto pkt = make_packet(4096);
  next = 0;
  const auto n = fragment_packet_into(std::span(pkt), 321, kMinMtu, acquire);
  ASSERT_GT(n, 1u);
  std::vector<const std::uint8_t*> before;
  for (std::size_t i = 0; i < n; ++i) before.push_back(bufs[i].data());
  next = 0;
  ASSERT_EQ(fragment_packet_into(std::span(pkt), 321, kMinMtu, acquire), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(bufs[i].data(), before[i]) << "fragment " << i
                                         << " reallocated on a warm pass";
}

TEST(Fragmentation, IntoBuffersRejectsMalformedWithoutAcquiring) {
  std::vector<std::uint8_t> garbage(kMinMtu + 100, 0xab);  // not IPv6
  std::size_t acquired = 0;
  std::vector<std::uint8_t> buf;
  const auto n = fragment_packet_into(
      std::span(garbage), 1, kMinMtu, [&]() -> std::vector<std::uint8_t>& {
        ++acquired;
        return buf;
      });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(acquired, 0u);
}

TEST(Fragmentation, ParametrizedSizesRoundTrip) {
  for (std::size_t payload : {1241u, 1500u, 2459u, 4096u, 9000u}) {
    const auto pkt = make_packet(payload);
    std::vector<std::vector<std::uint8_t>> frags;
    fragment_packet_into(std::span(pkt), 5, kMinMtu, append_to(frags));
    const auto whole = reassemble(frags);
    ASSERT_TRUE(whole) << payload;
    EXPECT_EQ(*whole, pkt) << payload;
  }
}

}  // namespace
}  // namespace beholder6::wire
