#include "mem/memory.h"

#include <algorithm>
#include <cstring>

#include "util/error.h"

namespace usca::mem {

bool memory::claim(std::uint32_t address) {
  if (arena_.empty()) {
    arena_base_ = address & ~static_cast<std::uint32_t>(page_size - 1);
  }
  const std::uint32_t offset = address - arena_base_;
  if (offset >= arena_span) {
    return false;
  }
  if (offset >= arena_.size()) {
    arena_.resize((offset / page_size + 1) * page_size, 0);
  }
  return true;
}

std::uint8_t* memory::touch(std::uint32_t address) {
  if (claim(address)) {
    return &arena_[address - arena_base_];
  }
  std::vector<std::uint8_t>& page = pages_[address >> page_bits];
  if (page.empty()) {
    page.resize(page_size, 0);
  }
  return &page[address & (page_size - 1)];
}

const std::uint8_t* memory::sparse_byte(std::uint32_t address) const noexcept {
  const auto it = pages_.find(address >> page_bits);
  return it == pages_.end() ? nullptr
                            : &it->second[address & (page_size - 1)];
}

void memory::throw_unaligned(const char* what) {
  throw util::simulation_error(what);
}

void memory::load(std::uint32_t base, const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) {
    return;
  }
  // One copy when the image fits the arena without wrapping past 0xffffffff.
  const std::uint32_t last =
      base + static_cast<std::uint32_t>(bytes.size() - 1);
  if (bytes.size() <= arena_span && last >= base && claim(base) &&
      claim(last)) {
    std::memcpy(&arena_[base - arena_base_], bytes.data(), bytes.size());
    return;
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    write8(base + static_cast<std::uint32_t>(i), bytes[i]);
  }
}

void memory::reset() noexcept {
  std::fill(arena_.begin(), arena_.end(), std::uint8_t{0});
  for (auto& [number, page] : pages_) {
    std::fill(page.begin(), page.end(), std::uint8_t{0});
  }
}

} // namespace usca::mem
