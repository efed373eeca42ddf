#include "sim/micro_arch_config.h"

#include "util/error.h"

namespace usca::sim {

std::size_t pair_class_index(isa::issue_class cls) noexcept {
  using isa::issue_class;
  switch (cls) {
  case issue_class::mov_like:
    return 0;
  case issue_class::alu_reg:
    return 1;
  case issue_class::alu_imm:
    return 2;
  case issue_class::mul_like:
    return 3;
  case issue_class::shift_like:
    return 4;
  case issue_class::branch_like:
    return 5;
  case issue_class::load_store:
    return 6;
  case issue_class::nop_like:
  case issue_class::other:
    break;
  }
  return num_pair_classes;
}

pairing_table cortex_a7_pairing_table() noexcept {
  // Rows: older instruction; columns: younger instruction.
  // Order: mov, ALU, ALU-imm, mul, shifts, branch, ld/st (Table 1).
  constexpr bool T = true;
  constexpr bool F = false;
  return pairing_table{{
      //           mov  ALU  ALUi mul  shft br   ld/st
      /* mov   */ {{T, T, T, F, T, T, F}},
      /* ALU   */ {{T, F, T, F, F, T, F}},
      /* ALUi  */ {{T, T, T, F, T, T, T}},
      /* mul   */ {{F, F, F, F, F, T, F}},
      /* shift */ {{F, F, T, F, F, T, F}},
      /* br    */ {{T, T, T, T, T, F, T}},
      /* ld/st */ {{T, F, T, F, F, T, F}},
  }};
}

micro_arch_config cortex_a7() noexcept {
  micro_arch_config config;
  // Cortex-A7 L1 caches: 32 KiB, 4-way, 64-byte lines (reference manual).
  config.icache.size_bytes = 32 * 1024;
  config.icache.ways = 2; // instruction side is 2-way on the A7
  config.icache.line_bytes = 64;
  config.dcache.size_bytes = 32 * 1024;
  config.dcache.ways = 4;
  config.dcache.line_bytes = 64;
  return config;
}

micro_arch_config cortex_a7_scalar() noexcept {
  micro_arch_config config = cortex_a7();
  config.issue_width = 1;
  config.fetch_width = 1;
  return config;
}

micro_arch_config cortex_a7_ooo(ooo_config ooo) noexcept {
  micro_arch_config config = cortex_a7();
  // Same execution units, latencies and caches as the in-order model;
  // the issue engine comes from `ooo`, and the scheduler's select stage
  // scales with the front end.
  config.ooo = ooo;
  config.issue_width = ooo.rename_width;
  return config;
}

void validate_ooo_config(const micro_arch_config& config) {
  const ooo_config& ooo = config.ooo;
  if (ooo.rob_entries < 2 || ooo.rename_width < 1 || ooo.retire_width < 1 ||
      ooo.rs_entries < 1 || ooo.cdb_width < 1 ||
      ooo.store_buffer_entries < 1) {
    throw util::simulation_error("ooo_config: widths/depths must be >= 1 "
                                 "(rob_entries >= 2)");
  }
  // The lane-state arrays (RAT/CDB/tag-bus/retire ports) model 4 ports;
  // wider configurations would silently alias lanes and corrupt the
  // before/after Hamming distances.
  if (ooo.rename_width > 4 || ooo.retire_width > 4 || ooo.cdb_width > 4) {
    throw util::simulation_error(
        "ooo_config: rename/retire/cdb width beyond the 4 modelled ports");
  }
  // The production scheduler tracks readiness in one 64-bit mask over an
  // age-ordered ring indexed by seq mod 64; positions stay unique only
  // while the in-flight window (bounded by the ROB) fits in 64 sequence
  // numbers.  Enforced for the oracle too, so that a configuration's
  // validity never depends on the implementation.
  if (ooo.rob_entries > ooo_max_rob_entries ||
      ooo.rs_entries > ooo_max_rs_entries) {
    throw util::simulation_error(
        "ooo_config: rob_entries/rs_entries beyond the 64-entry scheduler "
        "sizing cap (ooo_max_rob_entries/ooo_max_rs_entries)");
  }
  if (ooo.prf_size <= isa::num_registers + 1 || ooo.prf_size > 255) {
    throw util::simulation_error(
        "ooo_config: prf_size must lie in (17, 255] — 16 architectural "
        "mappings plus at least one rename target");
  }
  if (config.issue_width < 1) {
    throw util::simulation_error("ooo backend requires issue_width >= 1");
  }
  const speculation_config spec = effective_speculation(config);
  if (spec.predictor != predictor_kind::perfect) {
    validate_speculation_config(spec);
    if (!config.perfect_branch_prediction) {
      throw util::simulation_error(
          "speculation_config: a real predictor replaces the legacy "
          "branch_mispredict_penalty model; leave "
          "perfect_branch_prediction enabled");
    }
  }
}

micro_arch_config cortex_a7_ooo_spec(speculation_config spec,
                                     ooo_config ooo) noexcept {
  micro_arch_config config = cortex_a7_ooo(ooo);
  config.speculation = spec;
  return config;
}

} // namespace usca::sim
