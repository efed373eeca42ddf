#include "mem/memory.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace usca::mem {
namespace {

TEST(Memory, ZeroInitialized) {
  memory m;
  EXPECT_EQ(m.read8(0), 0);
  EXPECT_EQ(m.read32(0x10000), 0u);
}

TEST(Memory, ByteRoundTrip) {
  memory m;
  m.write8(100, 0xab);
  EXPECT_EQ(m.read8(100), 0xab);
  EXPECT_EQ(m.read8(101), 0);
}

TEST(Memory, WordLittleEndian) {
  memory m;
  m.write32(0x1000, 0x11223344);
  EXPECT_EQ(m.read8(0x1000), 0x44);
  EXPECT_EQ(m.read8(0x1003), 0x11);
  EXPECT_EQ(m.read32(0x1000), 0x11223344u);
}

TEST(Memory, HalfwordRoundTrip) {
  memory m;
  m.write16(0x2000, 0xbeef);
  EXPECT_EQ(m.read16(0x2000), 0xbeef);
  EXPECT_EQ(m.read8(0x2000), 0xef);
}

TEST(Memory, UnalignedAccessesThrow) {
  memory m;
  EXPECT_THROW(m.read32(2), util::simulation_error);
  EXPECT_THROW(m.write32(1, 0), util::simulation_error);
  EXPECT_THROW(m.read16(1), util::simulation_error);
  EXPECT_THROW(m.write16(3, 0), util::simulation_error);
}

TEST(Memory, CrossPageAccess) {
  memory m;
  const std::uint32_t boundary = memory::page_size - 2;
  m.write32(boundary - 2, 0xa1b2c3d4); // fully inside page 0
  m.write8(memory::page_size, 0x99);   // first byte of page 1
  EXPECT_EQ(m.read32(boundary - 2), 0xa1b2c3d4u);
  EXPECT_EQ(m.read8(memory::page_size), 0x99);
}

TEST(Memory, BulkLoad) {
  memory m;
  m.load(0x10000, {1, 2, 3, 4});
  EXPECT_EQ(m.read32(0x10000), 0x04030201u);
}

TEST(Memory, ContainingWordForSubwordAccess) {
  memory m;
  m.write32(0x3000, 0xaabbccdd);
  // The MDR observes the full word regardless of which byte is addressed.
  EXPECT_EQ(m.containing_word(0x3001), 0xaabbccddu);
  EXPECT_EQ(m.containing_word(0x3003), 0xaabbccddu);
}

TEST(Memory, ResetZeroesEveryTouchedPageInPlace) {
  memory m;
  m.write32(0x1000, 0xdeadbeef);
  m.write8(0x10000, 0x42);                 // a second, distant page
  m.write16(memory::page_size - 2, 0x1234); // page-boundary straddle setup
  m.reset();
  // Observationally a fresh memory: all previously written locations read
  // zero, and new writes still work.
  EXPECT_EQ(m.read32(0x1000), 0u);
  EXPECT_EQ(m.read8(0x10000), 0u);
  EXPECT_EQ(m.read16(memory::page_size - 2), 0u);
  m.write32(0x1000, 7);
  EXPECT_EQ(m.read32(0x1000), 7u);
}

TEST(Memory, CopyIsIndependentOfSource) {
  memory a;
  a.load(0x10000, {1, 2, 3, 4});
  a.write32(0x0, 0x55667788); // below the arena: a sparse page
  memory b = a;
  EXPECT_EQ(b.read32(0x10000), 0x04030201u);
  EXPECT_EQ(b.read32(0x0), 0x55667788u);
  b.write32(0x10000, 0xffffffff);
  b.write32(0x0, 0);
  b.write8(0x10000 + memory::page_size, 9); // grows only the copy's arena
  EXPECT_EQ(a.read32(0x10000), 0x04030201u);
  EXPECT_EQ(a.read32(0x0), 0x55667788u);
  EXPECT_EQ(a.read8(0x10000 + memory::page_size), 0);
  a.reset();
  EXPECT_EQ(b.read32(0x10000), 0xffffffffu);
  EXPECT_EQ(b.read8(0x10000 + memory::page_size), 9);
  memory c;
  c = b; // copy assignment too
  b.reset();
  EXPECT_EQ(c.read32(0x10000), 0xffffffffu);
}

TEST(Memory, ArenaAtTopOfAddressSpaceWrapsToZero) {
  memory m;
  m.write32(0xfffffffc, 0xcafef00d); // places the arena on the last page
  m.write8(0x0, 0x11);               // the arena's second page
  m.load(0xfffffffe, {0xaa, 0xbb, 0xcc, 0xdd}); // wraps mid-image
  EXPECT_EQ(m.read32(0xfffffffc), 0xbbaaf00du);
  EXPECT_EQ(m.read16(0x0), 0xddccu);
  m.reset();
  EXPECT_EQ(m.read32(0xfffffffc), 0u);
  EXPECT_EQ(m.read32(0x0), 0u);
}

// Differential check against a byte-map reference: every access class the
// arena and the sparse fallback distinguish, under a fixed-seed random mix of
// reads, writes, loads, resets and copies.
TEST(Memory, DifferentialAgainstByteMap) {
  constexpr std::uint32_t base = 0x10000;
  constexpr auto page = static_cast<std::uint32_t>(memory::page_size);
  constexpr auto span = static_cast<std::uint32_t>(memory::arena_span);
  // Probe points: inside the arena, its first and last byte, just past its
  // initial one-page size, just past its maximum span, below its base, the
  // top of the address space, and address zero.
  const std::array<std::uint32_t, 11> probes = {
      base,           base + 0x40,     base + page - 1, base + page,
      base + 3 * page + 8, base + span - 4, base + span - 1,
      base + span,    base - 4,        0xfffffffc,      0x0};

  std::map<std::uint32_t, std::uint8_t> ref;
  const auto ref8 = [&ref](std::uint32_t a) -> std::uint8_t {
    const auto it = ref.find(a);
    return it == ref.end() ? 0 : it->second;
  };
  const auto ref_le = [&ref8](std::uint32_t a, int bytes) {
    std::uint32_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint32_t>(ref8(a + static_cast<std::uint32_t>(i)))
           << (8 * i);
    }
    return v;
  };
  const auto agree = [&](const memory& m) {
    for (const auto& [a, v] : ref) {
      ASSERT_EQ(m.read8(a), v) << "address 0x" << std::hex << a;
    }
    for (std::uint32_t p : probes) {
      for (std::uint32_t d = 0; d < 8; ++d) {
        const std::uint32_t a = p + d;
        ASSERT_EQ(m.read8(a), ref8(a)) << "address 0x" << std::hex << a;
        ASSERT_EQ(m.read16(a & ~1U), ref_le(a & ~1U, 2));
        ASSERT_EQ(m.read32(a & ~3U), ref_le(a & ~3U, 4));
        ASSERT_EQ(m.containing_word(a), ref_le(a & ~3U, 4));
      }
    }
  };

  memory m;
  // The first touch places the arena on base's page.
  m.load(base + 0x40, {0xde, 0xad});
  ref[base + 0x40] = 0xde;
  ref[base + 0x41] = 0xad;

  util::xoshiro256 rng(0x3e3043ee);
  for (int step = 0; step < 20000; ++step) {
    // An address near a probe point (either side of it), or anywhere in the
    // arena's span.
    std::uint32_t a =
        rng.bounded(4) == 0
            ? base + static_cast<std::uint32_t>(rng.bounded(span))
            : probes[rng.bounded(probes.size())] +
                  static_cast<std::uint32_t>(rng.bounded(16)) - 8;
    const std::uint64_t op = rng.bounded(100);
    if (op < 25) {
      ASSERT_EQ(m.read8(a), ref8(a));
    } else if (op < 35) {
      a &= ~1U;
      ASSERT_EQ(m.read16(a), ref_le(a, 2));
    } else if (op < 50) {
      a &= ~3U;
      ASSERT_EQ(m.read32(a), ref_le(a, 4));
      ASSERT_EQ(m.containing_word(a + 1), ref_le(a, 4));
    } else if (op < 65) {
      const std::uint8_t v = rng.next_u8();
      m.write8(a, v);
      ref[a] = v;
    } else if (op < 75) {
      a &= ~1U;
      const auto v = static_cast<std::uint16_t>(rng.next_u32());
      m.write16(a, v);
      ref[a] = static_cast<std::uint8_t>(v);
      ref[a + 1] = static_cast<std::uint8_t>(v >> 8);
    } else if (op < 90) {
      a &= ~3U;
      const std::uint32_t v = rng.next_u32();
      m.write32(a, v);
      for (std::uint32_t i = 0; i < 4; ++i) {
        ref[a + i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    } else if (op < 96) {
      // Images up to 24 bytes: inside the arena, straddling its span end,
      // below its base, or wrapping past 0xffffffff.
      std::vector<std::uint8_t> image(rng.bounded(25));
      for (std::uint8_t& b : image) {
        b = rng.next_u8();
      }
      m.load(a, image);
      for (std::size_t i = 0; i < image.size(); ++i) {
        ref[a + static_cast<std::uint32_t>(i)] = image[i];
      }
    } else if (op < 98) {
      m.reset();
      ref.clear();
    } else {
      // A copy must agree now and stay independent afterwards.
      memory copy = m;
      agree(copy);
      copy.write32(base + page, ~ref_le(base + page, 4));
      copy.write8(base + span + 4,
                  static_cast<std::uint8_t>(~ref8(base + span + 4)));
      ASSERT_EQ(m.read32(base + page), ref_le(base + page, 4));
      ASSERT_EQ(m.read8(base + span + 4), ref8(base + span + 4));
    }
    if (op >= 50 && rng.bounded(8) == 0) {
      // Unaligned accesses throw wherever they land and change nothing.
      const std::uint32_t u =
          (a & ~3U) + 1 + static_cast<std::uint32_t>(rng.bounded(3));
      EXPECT_THROW(m.read32(u), util::simulation_error);
      EXPECT_THROW(m.write32(u, 0xffffffff), util::simulation_error);
      if (u % 2 != 0) {
        EXPECT_THROW(m.read16(u), util::simulation_error);
        EXPECT_THROW(m.write16(u, 0xffff), util::simulation_error);
      }
    }
    if (step % 1000 == 999) {
      agree(m);
    }
  }
  agree(m);
}

} // namespace
} // namespace usca::mem
