// Timing pins for the pipeline model: every CPI behaviour the paper
// reports for the Cortex-A7 (Section 3) is asserted here.
#include "sim/pipeline.h"

#include <gtest/gtest.h>

#include "asmx/program.h"

namespace usca::sim {
namespace {

using isa::instruction;
using isa::opcode;
using isa::reg;
namespace mk = isa::ins;

double measure_cpi(const std::vector<instruction>& unit,
                   const micro_arch_config& config = cortex_a7(),
                   int reps = 100) {
  asmx::program_builder b;
  const std::uint32_t addr_b = b.data_word(0);
  const std::uint32_t addr_a = b.data_word(addr_b);
  b.load_constant(reg::r8, addr_a);
  b.load_constant(reg::r9, addr_b);
  b.pad_nops(20);
  b.emit(mk::mark(1));
  while (b.size() % 2 != 0) {
    b.pad_nops(1);
  }
  b.repeat(unit, reps);
  b.emit(mk::mark(2));
  b.pad_nops(20);
  pipeline pipe(b.build(), config);
  pipe.set_record_activity(false);
  pipe.warm_caches();
  pipe.run();
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  for (const auto& m : pipe.marks()) {
    (m.id == 1 ? begin : end) = m.cycle;
  }
  return static_cast<double>(end - begin) /
         (static_cast<double>(unit.size()) * reps);
}

TEST(PipelineTiming, HazardFreeMovStreamReachesCpiHalf) {
  const double cpi =
      measure_cpi({mk::mov(reg::r1, reg::r2), mk::mov(reg::r3, reg::r4)});
  EXPECT_LT(cpi, 0.6);
  EXPECT_GT(cpi, 0.4);
}

TEST(PipelineTiming, NopsAreNeverDualIssued) {
  const double cpi = measure_cpi({mk::nop()});
  EXPECT_NEAR(cpi, 1.0, 0.1);
}

TEST(PipelineTiming, MulStreamIsPipelinedAtCpiOne) {
  const double cpi = measure_cpi({mk::mul(reg::r1, reg::r2, reg::r3)});
  EXPECT_NEAR(cpi, 1.0, 0.1);
}

TEST(PipelineTiming, LoadStreamIsPipelinedAtCpiOne) {
  const double cpi = measure_cpi({mk::ldr(reg::r1, reg::r8)});
  EXPECT_NEAR(cpi, 1.0, 0.1);
}

TEST(PipelineTiming, StoreStreamIsPipelinedAtCpiOne) {
  const double cpi = measure_cpi({mk::str(reg::r1, reg::r8)});
  EXPECT_NEAR(cpi, 1.0, 0.1);
}

TEST(PipelineTiming, RawHazardPreventsDualIssue) {
  const double cpi =
      measure_cpi({mk::mov(reg::r1, reg::r2), mk::mov(reg::r3, reg::r1)});
  EXPECT_GE(cpi, 0.95);
}

TEST(PipelineTiming, TwoRegAluPairNotDualIssued) {
  // ALU + ALU needs four read ports; the A7 has three.
  const double cpi = measure_cpi(
      {mk::add(reg::r1, reg::r2, reg::r3), mk::add(reg::r4, reg::r5, reg::r6)});
  EXPECT_GE(cpi, 0.95);
}

TEST(PipelineTiming, AluPlusImmediateAluDualIssues) {
  const double cpi = measure_cpi(
      {mk::add(reg::r1, reg::r2, reg::r3), mk::add_imm(reg::r4, reg::r5, 9)});
  EXPECT_LT(cpi, 0.6);
}

TEST(PipelineTiming, BranchDualIssuesWithMov) {
  const double cpi = measure_cpi({mk::b(0), mk::mov(reg::r1, reg::r2)});
  EXPECT_LT(cpi, 0.6);
}

TEST(PipelineTiming, ShiftPairNeverDualIssues) {
  const double cpi = measure_cpi(
      {mk::lsl(reg::r1, reg::r2, 3), mk::lsr(reg::r4, reg::r5, 2)});
  EXPECT_GE(cpi, 0.95);
}

TEST(PipelineTiming, ScalarConfigurationCapsAtCpiOne) {
  const double cpi = measure_cpi(
      {mk::mov(reg::r1, reg::r2), mk::mov(reg::r3, reg::r4)},
      cortex_a7_scalar());
  EXPECT_GE(cpi, 0.95);
}

TEST(PipelineTiming, NonPipelinedLsuAblationSlowsLoads) {
  micro_arch_config config = cortex_a7();
  config.lsu_pipelined = false;
  const double cpi = measure_cpi({mk::ldr(reg::r1, reg::r8)}, config);
  EXPECT_GE(cpi, 2.5);
}

TEST(PipelineTiming, NonPipelinedMulAblationSlowsMuls) {
  micro_arch_config config = cortex_a7();
  config.mul_pipelined = false;
  const double cpi = measure_cpi({mk::mul(reg::r1, reg::r2, reg::r3)}, config);
  EXPECT_GE(cpi, 2.5);
}

TEST(PipelineTiming, LoadUseDependencyStalls) {
  const double independent = measure_cpi(
      {mk::ldr(reg::r1, reg::r8), mk::add(reg::r4, reg::r5, reg::r6)});
  const double dependent = measure_cpi(
      {mk::ldr(reg::r1, reg::r8), mk::add(reg::r4, reg::r1, reg::r6)});
  EXPECT_GT(dependent, independent + 0.4);
}

TEST(PipelineTiming, TakenLoopRunsWithoutPredictionPenalty) {
  asmx::program_builder b;
  b.emit(mk::mov_imm(reg::r0, 0));
  b.emit(mk::mov_imm(reg::r1, 50));
  const auto loop_start = b.size();
  b.emit(mk::add(reg::r0, reg::r0, reg::r1));
  instruction dec = mk::sub_imm(reg::r1, reg::r1, 1);
  dec.set_flags = true;
  b.emit(dec);
  instruction back = mk::b(static_cast<std::int32_t>(loop_start) -
                               static_cast<std::int32_t>(b.size()) - 1,
                           isa::condition::ne);
  b.emit(back);
  pipeline pipe(b.build(), cortex_a7());
  pipe.warm_caches();
  pipe.run();
  EXPECT_EQ(pipe.state().reg(reg::r0), 50u * 51u / 2u);
  // 50 iterations x 3 instructions, partially paired: well under 4/iter.
  EXPECT_LT(pipe.cycles(), 220u);
}

TEST(PipelineTiming, MispredictPenaltyIncreasesLoopTime) {
  const auto build = [] {
    asmx::program_builder b;
    b.emit(mk::mov_imm(reg::r0, 0));
    b.emit(mk::mov_imm(reg::r1, 50));
    const auto loop_start = b.size();
    b.emit(mk::add(reg::r0, reg::r0, reg::r1));
    instruction dec = mk::sub_imm(reg::r1, reg::r1, 1);
    dec.set_flags = true;
    b.emit(dec);
    b.emit(mk::b(static_cast<std::int32_t>(loop_start) -
                     static_cast<std::int32_t>(b.size()) - 1,
                 isa::condition::ne));
    return b.build();
  };
  micro_arch_config fast = cortex_a7();
  micro_arch_config slow = cortex_a7();
  slow.perfect_branch_prediction = false;
  slow.branch_mispredict_penalty = 5;
  pipeline p1(build(), fast);
  p1.warm_caches();
  p1.run();
  pipeline p2(build(), slow);
  p2.warm_caches();
  p2.run();
  EXPECT_GT(p2.cycles(), p1.cycles() + 100);
  EXPECT_EQ(p1.state().reg(reg::r0), p2.state().reg(reg::r0));
}

TEST(PipelineTiming, ColdCachesCostCycles) {
  asmx::program_builder b;
  b.pad_nops(64);
  pipeline cold(b.build(), cortex_a7());
  cold.run();
  asmx::program_builder b2;
  b2.pad_nops(64);
  pipeline warm(b2.build(), cortex_a7());
  warm.warm_caches();
  warm.run();
  EXPECT_GT(cold.cycles(), warm.cycles());
}

TEST(PipelineTiming, DualIssueCounterTracksPairs) {
  const double cpi = measure_cpi(
      {mk::mov(reg::r1, reg::r2), mk::mov(reg::r3, reg::r4)});
  EXPECT_LT(cpi, 0.6);

  asmx::program_builder b;
  b.emit(mk::mark(1));
  b.repeat({mk::mov(reg::r1, reg::r2), mk::mov(reg::r3, reg::r4)}, 10);
  b.emit(mk::mark(2));
  pipeline pipe(b.build(), cortex_a7());
  pipe.warm_caches();
  pipe.run();
  ASSERT_EQ(pipe.marks().size(), 2u);
  EXPECT_GE(pipe.marks()[1].dual_pairs - pipe.marks()[0].dual_pairs, 8u);
}

// Static pairing predicate: the Table-1 cells plus hazard rules.
TEST(PipelinePairing, TableCells) {
  const micro_arch_config config = cortex_a7();
  const auto mov_a = mk::mov(reg::r1, reg::r2);
  const auto mov_b = mk::mov(reg::r3, reg::r4);
  const auto alu_a = mk::add(reg::r1, reg::r2, reg::r3);
  const auto alu_b = mk::add(reg::r4, reg::r5, reg::r6);
  const auto imm_b = mk::add_imm(reg::r4, reg::r5, 9);
  const auto mul_b = mk::mul(reg::r4, reg::r5, reg::r6);
  const auto shift_b = mk::lsl(reg::r4, reg::r5, 2);
  const auto ldr_b = mk::ldr(reg::r4, reg::r9);

  EXPECT_TRUE(statically_pairable(config, mov_a, mov_b));
  EXPECT_TRUE(statically_pairable(config, mov_a, alu_b));
  EXPECT_FALSE(statically_pairable(config, alu_a, alu_b));
  EXPECT_TRUE(statically_pairable(config, alu_a, imm_b));
  EXPECT_FALSE(statically_pairable(config, alu_a, mul_b));
  EXPECT_FALSE(statically_pairable(config, mov_a, ldr_b));
  EXPECT_TRUE(statically_pairable(config, ldr_b, mov_a));
  EXPECT_TRUE(statically_pairable(config, mov_a, shift_b));
  EXPECT_FALSE(statically_pairable(config, shift_b, mov_a));
  EXPECT_FALSE(statically_pairable(config, mk::nop(), mov_b));
  EXPECT_FALSE(statically_pairable(config, mov_a, mk::nop()));
}

TEST(PipelinePairing, HazardRules) {
  const micro_arch_config config = cortex_a7();
  // RAW: younger reads older's destination.
  EXPECT_FALSE(statically_pairable(config, mk::mov(reg::r1, reg::r2),
                                   mk::mov(reg::r3, reg::r1)));
  // WAW: same destination.
  EXPECT_FALSE(statically_pairable(config, mk::mov(reg::r1, reg::r2),
                                   mk::mov(reg::r1, reg::r4)));
  // Flag dependency: older sets flags, younger is conditional.
  instruction setter = mk::add(reg::r1, reg::r2, reg::r3);
  setter.set_flags = true;
  EXPECT_FALSE(statically_pairable(
      config, setter, mk::mov(reg::r4, reg::r5, isa::condition::eq)));
}

TEST(PipelinePairing, StructuralPolicyDiffersFromTable) {
  micro_arch_config structural = cortex_a7();
  structural.policy = issue_policy::structural;
  // mov + ldr is forbidden by the A7 issue PLA but fits the raw
  // structural resources — the ablation point of the paper's thesis.
  EXPECT_TRUE(statically_pairable(structural, mk::mov(reg::r1, reg::r2),
                                  mk::ldr(reg::r4, reg::r9)));
  EXPECT_FALSE(statically_pairable(structural, mk::ldr(reg::r1, reg::r8),
                                   mk::ldr(reg::r4, reg::r9)));
}

} // namespace
} // namespace usca::sim
