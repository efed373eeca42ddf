// Flat byte-addressable memory: one contiguous arena plus a sparse fallback.
//
// The simulated system is single-address-space, little-endian.  Each memory
// owns one zero-initialised byte arena, placed page-aligned at the first
// page the memory touches (a write or a load; reads never allocate).  The
// arena grows a page at a time, upward from its base, up to `arena_span`
// bytes.  Addresses below the base or past the span fall back to a sparse
// map of pages allocated on first touch, so programs with a high data base
// (default 0x10000) or a distant stack do not cost memory for the gap.
// Arena offsets are 32-bit, so an arena placed near the top of the address
// space continues at address 0.  Untouched addresses read as zero wherever
// they lie.
//
// The accessors are inline: an arena hit is one subtraction, one compare
// and a direct byte access.  Because the arena is page-aligned and a whole
// number of pages, an aligned halfword or word is either entirely inside
// it or entirely outside it, and never crosses a sparse page either.
// Sub-word accesses are supported directly; halfword and word accesses
// must be naturally aligned (the pipeline model does not split unaligned
// accesses, matching the deterministic micro-benchmarks of the paper).
#ifndef USCA_MEM_MEMORY_H
#define USCA_MEM_MEMORY_H

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace usca::mem {

class memory {
public:
  static constexpr std::size_t page_bits = 12;
  static constexpr std::size_t page_size = std::size_t{1} << page_bits;
  /// Largest arena (64 pages); addresses beyond it go to sparse pages.
  static constexpr std::size_t arena_span = 64 * page_size;

  std::uint8_t read8(std::uint32_t address) const noexcept {
    const std::uint8_t* p = readable(address);
    return p ? *p : 0;
  }

  std::uint16_t read16(std::uint32_t address) const {
    if (address % 2 != 0) {
      throw_unaligned("unaligned halfword read");
    }
    const std::uint8_t* p = readable(address);
    return p ? static_cast<std::uint16_t>(p[0] | (p[1] << 8)) : 0;
  }

  std::uint32_t read32(std::uint32_t address) const {
    if (address % 4 != 0) {
      throw_unaligned("unaligned word read");
    }
    const std::uint8_t* p = readable(address);
    return p ? static_cast<std::uint32_t>(p[0]) |
                   (static_cast<std::uint32_t>(p[1]) << 8) |
                   (static_cast<std::uint32_t>(p[2]) << 16) |
                   (static_cast<std::uint32_t>(p[3]) << 24)
             : 0;
  }

  void write8(std::uint32_t address, std::uint8_t value) {
    *writable(address) = value;
  }

  void write16(std::uint32_t address, std::uint16_t value) {
    if (address % 2 != 0) {
      throw_unaligned("unaligned halfword write");
    }
    std::uint8_t* p = writable(address);
    p[0] = static_cast<std::uint8_t>(value);
    p[1] = static_cast<std::uint8_t>(value >> 8);
  }

  void write32(std::uint32_t address, std::uint32_t value) {
    if (address % 4 != 0) {
      throw_unaligned("unaligned word write");
    }
    std::uint8_t* p = writable(address);
    p[0] = static_cast<std::uint8_t>(value);
    p[1] = static_cast<std::uint8_t>(value >> 8);
    p[2] = static_cast<std::uint8_t>(value >> 16);
    p[3] = static_cast<std::uint8_t>(value >> 24);
  }

  /// Bulk load (used to install a program's data image).
  void load(std::uint32_t base, const std::vector<std::uint8_t>& bytes);

  /// Reads the aligned 32-bit word containing `address` — the value the
  /// memory data register (MDR) observes on any access, including
  /// sub-word ones; central to the paper's MDR leakage model.
  std::uint32_t containing_word(std::uint32_t address) const {
    return read32(address & ~3U);
  }

  /// Restores the all-zero state while keeping every allocation: the arena
  /// and the sparse pages are zero-filled in place.  Observationally
  /// equivalent to a freshly constructed memory (untouched addresses read
  /// as zero either way) but without freeing — the building block of the
  /// pipeline's allocation-free reset.
  void reset() noexcept;

private:
  /// The byte at `address` (the first byte of an aligned access), or null
  /// if it lies on a page nothing has touched, which reads as zero.
  const std::uint8_t* readable(std::uint32_t address) const noexcept {
    const std::uint32_t offset = address - arena_base_;
    return offset < arena_.size() ? &arena_[offset] : sparse_byte(address);
  }
  std::uint8_t* writable(std::uint32_t address) {
    const std::uint32_t offset = address - arena_base_;
    return offset < arena_.size() ? &arena_[offset] : touch(address);
  }

  /// Grows the arena over `address` if it lies inside the arena's span,
  /// placing the arena at its page first if nothing was touched yet.
  bool claim(std::uint32_t address);
  /// Slow path of writable(): claims the arena or allocates a sparse page.
  std::uint8_t* touch(std::uint32_t address);
  const std::uint8_t* sparse_byte(std::uint32_t address) const noexcept;
  [[noreturn]] static void throw_unaligned(const char* what);

  std::vector<std::uint8_t> arena_;
  std::uint32_t arena_base_ = 0; ///< meaningful once arena_ is non-empty
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> pages_;
};

} // namespace usca::mem

#endif // USCA_MEM_MEMORY_H
