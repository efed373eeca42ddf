// Bit-identity contract of the batched SoA engines (sim/batch_sim.h):
// every surviving lane of a batch run must produce EXACTLY the activity
// stream, marks, cycle count, and architectural state of a per-trace run
// (make_backend: the engine at one lane) with the same inputs — at every
// batch size, on both backends.  The AES campaign workload must never
// eject a lane (its schedule is data-independent by construction);
// directed conditional programs exercise the ejection protocol, where the
// leader must always survive and every non-ejected lane must still match
// per-trace exactly.  Random programs at 1, 7 and 32 lanes run in the
// differential engine matrix (differential_test.cpp).  These compare lane
// counts of one engine; what ties the engine to the model's exact output
// across versions is the golden pins (inorder_activity_golden_test.cpp,
// ooo_activity_golden_test.cpp) and, for OoO, the oracle
// sim::ooo_reference_core.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/aes_codegen.h"
#include "sim/backend.h"
#include "sim/batch_sim.h"
#include "sim/micro_arch_config.h"
#include "sim/uarch_activity.h"
#include "util/error.h"
#include "util/rng.h"

namespace usca::sim {
namespace {

using isa::reg;

micro_arch_config config_for(backend_kind kind) {
  return kind == backend_kind::ooo ? cortex_a7_ooo() : cortex_a7();
}

struct per_trace_result {
  activity_trace activity;
  std::vector<mark_stamp> marks;
  std::uint64_t cycles = 0;
  cpu_state state;
  crypto::aes_block ciphertext{};
};

struct batch_case {
  backend_kind kind;
  std::size_t lanes;
};

class BatchSimEquivalence : public ::testing::TestWithParam<batch_case> {};

TEST_P(BatchSimEquivalence, AesLanesAreBitIdenticalToPerTrace) {
  const batch_case param = GetParam();
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_program();
  const program_image image(layout.prog);
  const micro_arch_config config = config_for(param.kind);
  const crypto::aes_key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};
  const crypto::aes_round_keys round_keys = crypto::expand_key(key);

  util::xoshiro256 rng(0x5eed5eed);
  std::vector<crypto::aes_block> plaintexts(param.lanes);
  for (crypto::aes_block& pt : plaintexts) {
    for (std::uint8_t& b : pt) {
      b = static_cast<std::uint8_t>(rng.next_u32());
    }
  }

  // Reference: one per-trace run per lane.
  std::vector<per_trace_result> expected(param.lanes);
  const std::unique_ptr<backend> core =
      make_backend(param.kind, image, config);
  for (std::size_t l = 0; l < param.lanes; ++l) {
    core->reset();
    crypto::install_aes_inputs(core->memory(), layout, round_keys,
                               plaintexts[l]);
    core->warm_caches();
    core->run();
    expected[l] = {core->activity(), core->marks(), core->cycles(),
                   core->state(),
                   crypto::read_aes_state(core->memory(), layout)};
  }

  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(param.kind, image, config, param.lanes);
  ASSERT_EQ(batch->lanes(), param.lanes);
  for (std::size_t l = 0; l < param.lanes; ++l) {
    crypto::install_aes_inputs(batch->memory(l), layout, round_keys,
                               plaintexts[l]);
  }
  batch->warm_caches();
  batch->run();

  EXPECT_FALSE(batch->any_lane_diverged())
      << "the AES schedule is data-independent: no lane may eject";
  for (std::size_t l = 0; l < param.lanes; ++l) {
    SCOPED_TRACE(l);
    EXPECT_EQ(batch->cycles(), expected[l].cycles);
    EXPECT_EQ(batch->marks(), expected[l].marks);
    EXPECT_EQ(batch->activity(l), expected[l].activity);
    const auto last = static_cast<std::uint32_t>(batch->cycles() + 16);
    EXPECT_EQ(activity_window_digest(batch->activity(l), 0, last),
              activity_window_digest(expected[l].activity, 0, last));
    EXPECT_EQ(batch->state(l).regs, expected[l].state.regs);
    EXPECT_EQ(crypto::read_aes_state(batch->memory(l), layout),
              expected[l].ciphertext);
  }

  // reset() must restore a fresh batch: run the same inputs again and the
  // leader's stream must reproduce (the zero-reallocation worker contract).
  batch->reset();
  for (std::size_t l = 0; l < param.lanes; ++l) {
    crypto::install_aes_inputs(batch->memory(l), layout, round_keys,
                               plaintexts[l]);
  }
  batch->warm_caches();
  batch->run();
  EXPECT_EQ(batch->activity(0), expected[0].activity);
}

INSTANTIATE_TEST_SUITE_P(
    LaneSweep, BatchSimEquivalence,
    ::testing::Values(batch_case{backend_kind::inorder, 1},
                      batch_case{backend_kind::inorder, 2},
                      batch_case{backend_kind::inorder, 7},
                      batch_case{backend_kind::inorder, 64},
                      batch_case{backend_kind::ooo, 1},
                      batch_case{backend_kind::ooo, 2},
                      batch_case{backend_kind::ooo, 7},
                      batch_case{backend_kind::ooo, 64}));

class BatchSimFuzz : public ::testing::TestWithParam<backend_kind> {};

INSTANTIATE_TEST_SUITE_P(Backends, BatchSimFuzz,
                         ::testing::Values(backend_kind::inorder,
                                           backend_kind::ooo));

// Deterministic ejection coverage: a conditional branch whose outcome is
// steered by a per-lane register value MUST eject exactly the lanes that
// disagree with the leader — and the survivors (leader included) must
// still match per-trace bit-for-bit.
TEST_P(BatchSimFuzz, ConditionalBranchEjectsDisagreeingLanes) {
  const backend_kind kind = GetParam();
  const micro_arch_config config = config_for(kind);
  namespace mk = isa::ins;

  asmx::program_builder b;
  b.emit(mk::cmp_imm(reg::r0, 0));
  b.emit(mk::b(2, isa::condition::eq)); // taken only when r0 == 0
  b.emit(mk::eor(reg::r1, reg::r1, reg::r2));
  b.emit(mk::add(reg::r3, reg::r1, reg::r2));
  b.emit(mk::str(reg::r3, reg::r10, 0));
  b.emit(mk::halt());
  b.define_symbol("buffer", b.data_block(16, 4));
  const asmx::program prog = b.build();
  const program_image image(prog);
  const std::uint32_t buffer = *prog.symbol("buffer");

  constexpr std::size_t lanes = 4;
  // Lanes 0 and 2 take the branch (r0 == 0); lanes 1 and 3 disagree.
  const std::array<std::uint32_t, lanes> r0 = {0, 7, 0, 9};

  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(kind, image, config, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    batch->state(l).set_reg(reg::r0, r0[l]);
    batch->state(l).set_reg(reg::r1, 0x1111u * (static_cast<std::uint32_t>(l) + 1));
    batch->state(l).set_reg(reg::r2, 0xa5a5a5a5u);
    batch->state(l).set_reg(reg::r10, buffer);
  }
  batch->warm_caches();
  batch->run();

  EXPECT_FALSE(batch->lane_diverged(0));
  EXPECT_TRUE(batch->lane_diverged(1));
  EXPECT_FALSE(batch->lane_diverged(2));
  EXPECT_TRUE(batch->lane_diverged(3));
  EXPECT_TRUE(batch->any_lane_diverged());

  const std::unique_ptr<backend> core = make_backend(kind, image, config);
  for (const std::size_t l : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(l);
    core->reset();
    core->state().set_reg(reg::r0, r0[l]);
    core->state().set_reg(reg::r1,
                          0x1111u * (static_cast<std::uint32_t>(l) + 1));
    core->state().set_reg(reg::r2, 0xa5a5a5a5u);
    core->state().set_reg(reg::r10, buffer);
    core->warm_caches();
    core->run();
    EXPECT_EQ(batch->cycles(), core->cycles());
    EXPECT_EQ(batch->activity(l), core->activity());
    EXPECT_EQ(batch->state(l).regs, core->state().regs);
  }
}

// A conditional mov whose rd still awaits an in-flight load: a lane whose
// condition fails keeps the load's later ready time and stalls the next
// consumer a cycle longer than a lane whose mov executed.  The two lanes
// cannot share a schedule, so the disagreeing one must be ejected rather
// than handed the leader's.
TEST(BatchSimPipeline, ConditionalMovOverInFlightLoadEjectsDisagreeingLane) {
  namespace mk = isa::ins;
  asmx::program_builder b;
  b.emit(mk::cmp(reg::r1, reg::r2));
  b.emit(mk::ldr(reg::r0, reg::r10, 0));
  b.emit(mk::mov(reg::r0, reg::r5, isa::condition::ge));
  b.emit(mk::add(reg::r3, reg::r0, reg::r0));
  b.define_symbol("buffer", b.data_block(16, 4));
  const asmx::program prog = b.build();
  const program_image image(prog);
  const std::array<std::uint32_t, 2> r1 = {5, 1}; // ge holds on lane 0 only
  const auto setup = [&](cpu_state& state, std::size_t l) {
    state.set_reg(reg::r1, r1[l]);
    state.set_reg(reg::r2, 3);
    state.set_reg(reg::r10, *prog.symbol("buffer"));
  };

  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(backend_kind::inorder, image, cortex_a7(), 2);
  for (std::size_t l = 0; l < 2; ++l) {
    setup(batch->state(l), l);
  }
  batch->warm_caches();
  batch->run();

  std::array<std::uint64_t, 2> cycles{};
  const std::unique_ptr<backend> core =
      make_backend(backend_kind::inorder, image, cortex_a7());
  for (std::size_t l = 0; l < 2; ++l) {
    SCOPED_TRACE(l);
    core->reset();
    setup(core->state(), l);
    core->warm_caches();
    core->run();
    cycles[l] = core->cycles();
    if (!batch->lane_diverged(l)) {
      EXPECT_EQ(batch->cycles(), core->cycles());
      EXPECT_EQ(batch->activity(l), core->activity());
      EXPECT_EQ(batch->state(l).regs, core->state().regs);
    }
  }
  EXPECT_NE(cycles[0], cycles[1]);
  EXPECT_FALSE(batch->lane_diverged(0));
  EXPECT_TRUE(batch->lane_diverged(1));
}

TEST(BatchSimLaneView, SimulationEntryPointsThrow) {
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_program();
  const program_image image(layout.prog);
  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(backend_kind::inorder, image, cortex_a7(), 2);
  batch_lane_view view(*batch, 1);
  EXPECT_EQ(&view.state(), &batch->state(1));
  EXPECT_EQ(&view.memory(), &batch->memory(1));
  EXPECT_EQ(view.kind(), backend_kind::inorder);
  EXPECT_THROW(view.run(), util::simulation_error);
  EXPECT_THROW(view.reset(), util::simulation_error);
  EXPECT_THROW(view.step_cycle(), util::simulation_error);
  EXPECT_THROW(view.warm_caches(), util::simulation_error);
}

TEST(BatchSimPartialGroup, LimitedLanesMatchAndKeepLimitAcrossReset) {
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_program();
  const program_image image(layout.prog);
  const crypto::aes_round_keys round_keys =
      crypto::expand_key({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                          14, 15});
  const crypto::aes_block plaintext = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a,
                                       0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                                       0xe0, 0x37, 0x07, 0x34};

  const std::unique_ptr<backend> core =
      make_backend(backend_kind::ooo, image, cortex_a7_ooo());
  crypto::install_aes_inputs(core->memory(), layout, round_keys, plaintext);
  core->warm_caches();
  core->run();

  const std::unique_ptr<batch_backend> batch =
      make_batch_backend(backend_kind::ooo, image, cortex_a7_ooo(), 16);
  batch->limit_active_lanes(3);
  EXPECT_EQ(batch->active_lanes(), 3u);
  batch->reset();
  EXPECT_EQ(batch->active_lanes(), 3u);
  for (std::size_t l = 0; l < 3; ++l) {
    crypto::install_aes_inputs(batch->memory(l), layout, round_keys,
                               plaintext);
  }
  batch->warm_caches();
  batch->run();
  for (std::size_t l = 0; l < 3; ++l) {
    SCOPED_TRACE(l);
    EXPECT_EQ(batch->activity(l), core->activity());
  }
}

} // namespace
} // namespace usca::sim
