#include "sim/ooo/ooo_core.h"

#include <cstdlib>
#include <string>

#include "util/error.h"

namespace usca::sim {

bool parse_ooo_reference_env(const char* value) {
  if (value == nullptr || value[0] == '\0' ||
      (value[0] == '0' && value[1] == '\0')) {
    return false;
  }
  if (value[0] == '1' && value[1] == '\0') {
    return true;
  }
  // A typo here used to silently force the reference scheduler (any
  // non-"0" string counted as "on") — fail loudly instead.
  throw util::simulation_error(
      std::string("unknown USCA_OOO_REFERENCE value '") + value +
      "' (valid values: unset, \"\", 0, 1)");
}

bool ooo_reference_forced() {
  // Re-read on every call (a getenv per core construction is noise):
  // setenv-based A/B tests must see the current value, not a cached one.
  return parse_ooo_reference_env(std::getenv("USCA_OOO_REFERENCE"));
}

bool ooo_reference_selected(const micro_arch_config& config) {
  return config.ooo.scheduler == ooo_scheduler::reference ||
         ooo_reference_forced();
}

} // namespace usca::sim
