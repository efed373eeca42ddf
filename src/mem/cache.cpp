#include "mem/cache.h"

#include <bit>

#include "util/error.h"

namespace usca::mem {

cache::cache(const cache_config& config) : config_(config) {
  if (config_.line_bytes == 0 || (config_.line_bytes & (config_.line_bytes - 1)) != 0) {
    throw util::usca_error("cache line size must be a power of two");
  }
  if (config_.ways == 0) {
    throw util::usca_error("cache must have at least one way");
  }
  num_sets_ = config_.size_bytes / (config_.line_bytes * config_.ways);
  if (num_sets_ == 0 || (num_sets_ & (num_sets_ - 1)) != 0) {
    throw util::usca_error("cache set count must be a power of two");
  }
  lines_.resize(num_sets_ * config_.ways);
  line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
  tag_shift_ =
      line_shift_ + static_cast<unsigned>(std::countr_zero(num_sets_));
}

// Both shifts are below 64, so shifting the widened address is defined even
// where a geometry spans the whole 32-bit space (the tag is then 0).
std::size_t cache::set_index(std::uint32_t address) const noexcept {
  return static_cast<std::size_t>(std::uint64_t{address} >> line_shift_) &
         (num_sets_ - 1);
}

std::uint32_t cache::tag_of(std::uint32_t address) const noexcept {
  return static_cast<std::uint32_t>(std::uint64_t{address} >> tag_shift_);
}

int cache::access(std::uint32_t address) {
  if (!config_.enabled) {
    return 0;
  }
  ++tick_;
  const std::size_t set = set_index(address);
  const std::uint32_t tag = tag_of(address);
  for (std::size_t w = 0; w < config_.ways; ++w) {
    line& l = lines_[set * config_.ways + w];
    if (l.valid && l.tag == tag) {
      l.last_use = tick_;
      ++hits_;
      return 0;
    }
  }
  // Miss: evict an invalid line if present, else the true-LRU line.
  line* victim = &lines_[set * config_.ways];
  for (std::size_t w = 0; w < config_.ways; ++w) {
    line& l = lines_[set * config_.ways + w];
    if (!l.valid) {
      victim = &l;
      break;
    }
    if (l.last_use < victim->last_use) {
      victim = &l;
    }
  }
  ++misses_;
  victim->valid = true;
  victim->tag = tag;
  victim->last_use = tick_;
  return config_.miss_penalty;
}

bool cache::would_hit(std::uint32_t address) const noexcept {
  if (!config_.enabled) {
    return true;
  }
  const std::size_t set = set_index(address);
  const std::uint32_t tag = tag_of(address);
  for (std::size_t w = 0; w < config_.ways; ++w) {
    const line& l = lines_[set * config_.ways + w];
    if (l.valid && l.tag == tag) {
      return true;
    }
  }
  return false;
}

void cache::warm(std::uint32_t base, std::size_t length) {
  if (!config_.enabled || length == 0) {
    return;
  }
  const auto line_bytes = static_cast<std::uint32_t>(config_.line_bytes);
  const std::uint32_t first = base / line_bytes * line_bytes;
  const std::uint32_t last =
      (base + static_cast<std::uint32_t>(length) - 1) / line_bytes * line_bytes;
  for (std::uint32_t addr = first;; addr += line_bytes) {
    access(addr);
    if (addr == last) {
      break;
    }
  }
}

void cache::reset() {
  for (line& l : lines_) {
    l = line{};
  }
  tick_ = hits_ = misses_ = 0;
}

} // namespace usca::mem
