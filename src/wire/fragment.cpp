#include "wire/fragment.hpp"

#include <algorithm>

#include "wire/buffer.hpp"

namespace beholder6::wire {

void FragmentHeader::encode(std::vector<std::uint8_t>& out) const {
  Writer w{out};
  w.u8(next_header);
  w.u8(0);  // reserved
  w.u16(static_cast<std::uint16_t>((offset << 3) | (more_fragments ? 1 : 0)));
  w.u32(identification);
}

std::optional<FragmentHeader> FragmentHeader::decode(
    std::span<const std::uint8_t> data) {
  Reader r{data};
  FragmentHeader h;
  h.next_header = r.u8();
  (void)r.u8();
  const auto off = r.u16();
  h.offset = static_cast<std::uint16_t>(off >> 3);
  h.more_fragments = off & 1;
  h.identification = r.u32();
  if (!r.ok()) return std::nullopt;
  return h;
}

std::optional<FragmentHeader> fragment_of(std::span<const std::uint8_t> packet) {
  const auto ip = Ipv6Header::decode(packet);
  if (!ip || ip->next_header != kFragmentNextHeader) return std::nullopt;
  if (packet.size() < Ipv6Header::kSize + FragmentHeader::kSize) return std::nullopt;
  return FragmentHeader::decode(packet.subspan(Ipv6Header::kSize));
}

std::optional<std::vector<std::uint8_t>> reassemble(
    const std::vector<std::vector<std::uint8_t>>& fragments) {
  if (fragments.empty()) return std::nullopt;
  struct Piece {
    FragmentHeader h;
    std::span<const std::uint8_t> data;
  };
  std::vector<Piece> pieces;
  for (const auto& f : fragments) {
    const auto h = fragment_of(f);
    if (!h) return std::nullopt;
    pieces.push_back({*h, std::span(f).subspan(Ipv6Header::kSize + FragmentHeader::kSize)});
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.h.offset < b.h.offset; });
  const auto id = pieces[0].h.identification;
  if (pieces[0].h.offset != 0 || pieces.back().h.more_fragments) return std::nullopt;

  const auto ip = Ipv6Header::decode(fragments[0]);
  std::vector<std::uint8_t> whole;
  Ipv6Header oh = *ip;
  oh.next_header = pieces[0].h.next_header;
  std::size_t expected = 0;
  std::size_t total = 0;
  for (const auto& p : pieces) total += p.data.size();
  oh.payload_length = static_cast<std::uint16_t>(total);
  oh.encode(whole);
  for (const auto& p : pieces) {
    if (p.h.identification != id) return std::nullopt;
    if (p.h.offset * 8u != expected) return std::nullopt;  // gap or overlap
    whole.insert(whole.end(), p.data.begin(), p.data.end());
    expected += p.data.size();
  }
  return whole;
}

}  // namespace beholder6::wire
