// Cycle-level model of an out-of-order issue core over the AL32 ISA.
//
// The DAC'18 paper's thesis — leakage is a property of the
// micro-architecture, not the ISA — is tested here against a second
// design point: the same ISA, execution units, latencies and caches as
// the in-order Cortex-A7 model, but issued through a modern OoO engine:
//
//   * a configurable-width rename stage with a register alias table (RAT)
//     mapping the 16 architectural registers onto a physical register
//     file (PRF) with a free list;
//   * a reservation station (RS) with tag-broadcast wakeup and
//     oldest-first select, bounded by the structural units of the
//     micro_arch_config (ALU count, single LSU pipe, ALU0-only
//     shifter/multiplier);
//   * a circular reorder buffer (ROB) with in-order retirement through a
//     configurable number of retire ports, and a post-commit store
//     buffer draining into the existing mem::cache timing path;
//   * a common data bus (CDB) broadcasting completed results to the RS
//     and the PRF.
//
// Each of those structures is a leakage source in its own right (Ge et
// al.; the retirement-channel literature): the model emits the shared
// EX-stage components (alu_in_latch, alu_out, shift_buffer, mdr,
// align_buffer) plus the OoO-specific ones (rat_port, prf_read_port,
// rs_tag_bus, cdb, rob_retire_port), so the whole power/CPA/TVLA stack
// runs on OoO traces unchanged.
//
// Execution strategy (same trick as the in-order pipeline): instructions
// execute *architecturally* at rename time, in program order, so values —
// including memory and flags — are exact and retirement is bit-identical
// to the functional executor by construction.  The scheduler then models
// *when* those values move: wakeup, select, FU latencies, CDB
// arbitration and in-order commit produce the OoO timing and the OoO
// activity stream.  Predication is modelled as select µops (the old
// destination is a real source and the destination/flag renames happen
// whatever the condition's outcome), so the schedule — and with it the
// marker-delimited acquisition window — never depends on data.  This
// keeps the model fast enough for 100k-trace campaigns while making
// "same ISA, different leakage" directly measurable.
//
// One production engine implements this model: sim::batch_ooo_core,
// which advances N traces through one shared scheduler (ready bitmask
// over an age-ordered ring, per-tag waiter lists, a completion wheel, an
// idle-cycle skip; speculation included).  A per-trace core is a 1-lane
// engine, and this class is exactly that: sim::batch_ooo_core constructed
// with one lane, whose one lane is the leader and so is never ejected.
// The only other implementation is the oracle sim::ooo_reference_core
// (ooo_reference_core.h), a 1-lane engine of its own: the original
// per-cycle linear scans, bit-identical by contract and enforced by the
// differential suites (ctest -L "ooo_equiv|spec|sim_batch").
// make_backend() picks the oracle when ooo.scheduler == reference or
// USCA_OOO_REFERENCE=1 is set; constructing this class under either
// throws.
#ifndef USCA_SIM_OOO_OOO_CORE_H
#define USCA_SIM_OOO_OOO_CORE_H

#include <utility>

#include "asmx/program.h"
#include "sim/micro_arch_config.h"
#include "sim/ooo/batch_ooo_core.h"
#include "sim/program_image.h"

namespace usca::sim {

/// Strict parse of a USCA_OOO_REFERENCE value: unset / "" / "0" mean
/// "don't force", "1" means "force the reference scheduler"; anything
/// else throws util::simulation_error listing the valid values (a silent
/// fallthrough here used to force the reference scheduler on typos).
bool parse_ooo_reference_env(const char* value);

/// Whether USCA_OOO_REFERENCE currently forces the reference scheduler.
/// Read from the environment on every call so setenv-based A/B tests see
/// the live value; throws on a malformed value (see parse above).
bool ooo_reference_forced();

/// Whether an OoO backend built from `config` runs on the oracle
/// (ooo.scheduler == reference, or USCA_OOO_REFERENCE=1).
bool ooo_reference_selected(const micro_arch_config& config);

class ooo_core final : public batch_ooo_core {
public:
  explicit ooo_core(asmx::program prog,
                    micro_arch_config config = cortex_a7_ooo())
      : ooo_core(program_image(std::move(prog)), config) {}

  /// Shares an immutable program image instead of copying the program —
  /// the constructor campaign workers use.  Throws util::simulation_error
  /// when the ooo_config is structurally invalid (e.g. prf_size <= 16) or
  /// the reference scheduler is selected (see above).
  explicit ooo_core(program_image image,
                    micro_arch_config config = cortex_a7_ooo())
      : batch_ooo_core(std::move(image), config, 1) {}
};

} // namespace usca::sim

#endif // USCA_SIM_OOO_OOO_CORE_H
