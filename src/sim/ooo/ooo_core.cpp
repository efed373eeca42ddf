#include "sim/ooo/ooo_core.h"

#include <cstdlib>
#include <string>
#include <utility>

#include "util/error.h"
#include "util/telemetry.h"

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

ooo_core::ooo_core(asmx::program prog, micro_arch_config config)
    : ooo_core(program_image(std::move(prog)), config) {}

ooo_core::ooo_core(program_image image, micro_arch_config config)
    : lane_(std::move(image), config, 1) {
  activity_.reserve(4096);
  static const telem::gauge reference_mode{"sim.ooo.reference_mode", "flag",
                                           "sim"};
  reference_mode.set(0);
}

void ooo_core::reset() {
  lane_.drive_face(*this, [this] { lane_.reset(); });
}

void ooo_core::rebind(program_image image) {
  lane_.drive_face(*this, [&] { lane_.rebind(std::move(image)); });
}

void ooo_core::run(std::uint64_t max_cycles) {
  lane_.drive_face(*this, [&] { lane_.simulate(max_cycles); });
}

bool ooo_core::step_cycle() {
  return lane_.drive_face(*this, [this] { return lane_.step_cycle(); });
}

} // namespace usca::sim
