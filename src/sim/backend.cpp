#include "sim/backend.h"

#include <utility>

#include "sim/ooo/ooo_core.h"
#include "sim/ooo/ooo_reference_core.h"
#include "sim/pipeline.h"
#include "util/bitops.h"

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
  switch (kind) {
  case backend_kind::inorder:
    return std::make_unique<pipeline>(std::move(image), config);
  case backend_kind::ooo:
    if (ooo_reference_selected(config)) {
      return std::make_unique<ooo_reference_core>(std::move(image), config);
    }
    return std::make_unique<ooo_core>(std::move(image), config);
  }
  return nullptr;
}

} // namespace usca::sim
