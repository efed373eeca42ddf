#include "sim/pipeline.h"

#include <utility>

namespace usca::sim {

pipeline::pipeline(asmx::program prog, micro_arch_config config)
    : pipeline(program_image(std::move(prog)), config) {}

pipeline::pipeline(program_image image, micro_arch_config config)
    : lane_(std::move(image), config, 1) {
  activity_.reserve(4096);
}

void pipeline::reset() {
  lane_.drive_face(*this, [this] { lane_.reset(); });
}

void pipeline::rebind(program_image image) {
  lane_.drive_face(*this, [&] { lane_.rebind(std::move(image)); });
}

void pipeline::run(std::uint64_t max_cycles) {
  lane_.drive_face(*this, [&] { lane_.simulate(max_cycles); });
}

bool pipeline::step_cycle() {
  return lane_.drive_face(*this, [this] { return lane_.step_cycle(); });
}

} // namespace usca::sim
