#include "sim/backend.h"

#include <utility>

#include "sim/batch_sim.h"

namespace usca::sim {

std::string_view backend_kind_name(backend_kind kind) noexcept {
  switch (kind) {
  case backend_kind::inorder:
    return "inorder";
  case backend_kind::ooo:
    return "ooo";
  }
  return "?";
}

std::optional<backend_kind> parse_backend_kind(std::string_view text) noexcept {
  if (text == "inorder" || text == "in-order") {
    return backend_kind::inorder;
  }
  if (text == "ooo" || text == "out-of-order") {
    return backend_kind::ooo;
  }
  return std::nullopt;
}

std::unique_ptr<backend> make_backend(backend_kind kind, program_image image,
                                      const micro_arch_config& config) {
  return make_batch_backend(kind, std::move(image), config, 1);
}

} // namespace usca::sim
