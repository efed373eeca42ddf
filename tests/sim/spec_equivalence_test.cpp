// Contract suite of the speculation subsystem (sim/ooo/speculation.h):
//
//   1. `predictor = perfect` is bit-identical to the pre-speculation
//      model — the AES golden digests pin this, and a speculating core
//      never emits bp_table/btb_port events under the perfect predictor.
//   2. Speculation changes ONLY timing and activity: for every predictor
//      kind, the architectural results (registers, flags, memory, mark
//      ids) of seeded random programs are identical to the spec-off run.
//   3. The production engine (sim::batch_ooo_core, per-trace as its
//      1-lane construction sim::ooo_core) and the oracle
//      sim::ooo_reference_core stay bit-identical under speculation —
//      wrong-path rename, dispatch, issue and the recovery flush
//      included — and so does
//      every surviving lane of a speculating batch.
//   4. Recovery flushes nest correctly behind in-flight wrong-path
//      branches, and RSB over/underflow stays deterministic.
//   5. USCA_SPEC_PREDICTOR parses strictly and overrides live; a
//      speculating campaign batches and delivers records byte-identical
//      to its per-trace run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "asmx/program.h"
#include "core/campaign.h"
#include "crypto/aes_codegen.h"
#include "random_program.h"
#include "sim/ooo/batch_ooo_core.h"
#include "sim/ooo/ooo_core.h"
#include "sim/ooo/ooo_reference_core.h"
#include "sim/ooo/speculation.h"
#include "util/error.h"
#include "util/rng.h"

namespace usca::sim {
namespace {

using isa::condition;
using isa::reg;
using testing::random_program;
using testing::random_program_buffer_words;
namespace mk = isa::ins;

// Same constants as tests/sim/ooo_activity_golden_test.cpp: the perfect
// predictor must reproduce the pinned pre-speculation digest exactly.
constexpr std::uint64_t golden_ooo_digest = 0xcc24a3dc1eafa858ULL;
constexpr crypto::aes_key golden_key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                        0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                        0x09, 0xcf, 0x4f, 0x3c};
constexpr crypto::aes_block golden_plaintext = {
    0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
    0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};

speculation_config spec_of(predictor_kind kind) {
  speculation_config spec;
  spec.predictor = kind;
  return spec;
}

/// Architectural outcome of a run — everything that must NOT move when a
/// predictor is enabled.  (Cycles, activity and mark cycle stamps may.)
struct arch_snapshot {
  std::array<std::uint32_t, 16> regs{};
  isa::flags flags;
  std::vector<std::uint32_t> buffer_words;
  std::vector<std::uint16_t> mark_ids;
};

struct full_snapshot {
  arch_snapshot arch;
  std::uint64_t cycles = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t wrong_path = 0;
  std::vector<mark_stamp> marks;
  activity_trace activity;
};

template <typename Core = ooo_core>
full_snapshot run_random(const asmx::program& prog,
                         const micro_arch_config& arch,
                         const std::array<std::uint32_t, 8>& inputs,
                         std::uint32_t index_r11) {
  Core core(prog, arch);
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    core.state().regs[r] = inputs[r];
  }
  const std::uint32_t buffer = *prog.symbol("buffer");
  core.state().set_reg(reg::r10, buffer);
  core.state().set_reg(reg::r11, index_r11);
  core.state().set_reg(reg::r12, buffer + 4 * random_program_buffer_words);
  core.warm_caches();
  core.run();

  full_snapshot snap;
  snap.arch.regs = core.state().regs;
  snap.arch.flags = core.state().f;
  for (std::uint32_t w = 0; w < random_program_buffer_words; ++w) {
    snap.arch.buffer_words.push_back(core.memory().read32(buffer + 4 * w));
  }
  for (const mark_stamp& mark : core.marks()) {
    snap.arch.mark_ids.push_back(mark.id);
  }
  snap.cycles = core.cycles();
  snap.mispredicts = core.mispredicts();
  snap.wrong_path = core.wrong_path_renamed();
  snap.marks = core.marks();
  snap.activity = core.activity();
  return snap;
}

/// Directed-program variant of run_random: no buffer/register protocol,
/// just run and snapshot (buffer_words stays empty on both sides).
full_snapshot run_snapshot_of(const asmx::program& prog,
                              const micro_arch_config& arch) {
  ooo_core core(prog, arch);
  core.warm_caches();
  core.run();
  full_snapshot snap;
  snap.arch.regs = core.state().regs;
  snap.arch.flags = core.state().f;
  for (const mark_stamp& mark : core.marks()) {
    snap.arch.mark_ids.push_back(mark.id);
  }
  snap.cycles = core.cycles();
  snap.mispredicts = core.mispredicts();
  snap.wrong_path = core.wrong_path_renamed();
  snap.marks = core.marks();
  snap.activity = core.activity();
  return snap;
}

void expect_same_arch(const arch_snapshot& got, const arch_snapshot& want,
                      std::uint64_t seed, const char* what) {
  ASSERT_EQ(got.regs, want.regs) << what << " seed=" << seed;
  ASSERT_EQ(got.flags, want.flags) << what << " seed=" << seed;
  ASSERT_EQ(got.buffer_words, want.buffer_words) << what << " seed=" << seed;
  ASSERT_EQ(got.mark_ids, want.mark_ids) << what << " seed=" << seed;
}

// ------------------------------------------------------------ golden pin

TEST(SpecEquivalence, PerfectPredictorReproducesGoldenDigest) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  // Explicitly routed through the speculation-aware constructor: the
  // perfect design point IS the pre-speculation model.
  ooo_core core(layout.prog, cortex_a7_ooo_spec(spec_of(
                                 predictor_kind::perfect)));
  const crypto::aes_round_keys rk = crypto::expand_key(golden_key);
  crypto::install_aes_inputs(core.memory(), layout, rk, golden_plaintext);
  core.warm_caches();
  core.run();

  std::uint64_t window_begin = 0;
  std::uint64_t window_end = 0;
  for (const mark_stamp& mark : core.marks()) {
    if (mark.id == crypto::mark_encrypt_begin) {
      window_begin = mark.cycle;
    }
    if (mark.id == crypto::mark_round1_end) {
      window_end = mark.cycle;
    }
  }
  ASSERT_LT(window_begin, window_end);
  EXPECT_EQ(activity_window_digest(core.activity(),
                                   static_cast<std::uint32_t>(window_begin),
                                   static_cast<std::uint32_t>(window_end)),
            golden_ooo_digest);
  EXPECT_EQ(core.mispredicts(), 0u);
  EXPECT_EQ(core.wrong_path_renamed(), 0u);
  // The predictor structures are silent under the perfect predictor —
  // over the WHOLE run, not just the golden window.
  for (const activity_event& ev : core.activity()) {
    ASSERT_NE(ev.comp, component::bp_table);
    ASSERT_NE(ev.comp, component::btb_port);
  }
}

// --------------------------------------- architectural-identity fuzzing

class SpecArchIdentity : public ::testing::TestWithParam<predictor_kind> {};

TEST_P(SpecArchIdentity, SpeculationNeverChangesArchitecturalState) {
  const predictor_kind kind = GetParam();
  const micro_arch_config base = cortex_a7_ooo();
  const micro_arch_config spec_arch = cortex_a7_ooo_spec(spec_of(kind));

  std::uint64_t total_mispredicts = 0;
  std::uint64_t total_wrong_path = 0;
  constexpr int programs = 200;
  for (int p = 0; p < programs; ++p) {
    const std::uint64_t seed = 0x5bec0000 + static_cast<std::uint64_t>(p);
    util::xoshiro256 rng(seed);
    const int length = 20 + static_cast<int>(rng.bounded(60));
    const asmx::program prog = random_program(rng, length);
    std::array<std::uint32_t, 8> inputs;
    for (auto& v : inputs) {
      v = rng.next_u32();
    }
    const auto index_r11 =
        static_cast<std::uint32_t>(rng.bounded(random_program_buffer_words));

    const full_snapshot off = run_random(prog, base, inputs, index_r11);
    const full_snapshot on = run_random(prog, spec_arch, inputs, index_r11);
    expect_same_arch(on.arch, off.arch, seed, "spec-on vs spec-off");
    EXPECT_EQ(off.mispredicts, 0u);
    total_mispredicts += on.mispredicts;
    total_wrong_path += on.wrong_path;
  }
  // The fuzz corpus contains conditional branches; a predictor that never
  // mispredicts on it is not being exercised (perfect is excluded here).
  EXPECT_GT(total_mispredicts, 0u) << predictor_kind_name(kind);
  EXPECT_GT(total_wrong_path, 0u) << predictor_kind_name(kind);
}

INSTANTIATE_TEST_SUITE_P(
    Predictors, SpecArchIdentity,
    ::testing::Values(predictor_kind::static_btfn, predictor_kind::bimodal,
                      predictor_kind::gshare),
    [](const ::testing::TestParamInfo<predictor_kind>& info) {
      return std::string(predictor_kind_name(info.param)) == "static"
                 ? std::string("static_btfn")
                 : std::string(predictor_kind_name(info.param));
    });

// ----------------------------------- fast vs reference under speculation

TEST(SpecEquivalence, FastAndReferenceSchedulersAgreeUnderSpeculation) {
  speculation_config spec = spec_of(predictor_kind::gshare);
  spec.resolve_latency = 5; // widen the wrong-path window
  micro_arch_config fast_arch = cortex_a7_ooo_spec(spec);
  micro_arch_config ref_arch = fast_arch;
  ref_arch.ooo.scheduler = ooo_scheduler::reference;

  std::uint64_t total_mispredicts = 0;
  constexpr int programs = 120;
  for (int p = 0; p < programs; ++p) {
    const std::uint64_t seed = 0x5bec8000 + static_cast<std::uint64_t>(p);
    util::xoshiro256 rng(seed);
    const int length = 20 + static_cast<int>(rng.bounded(60));
    const asmx::program prog = random_program(rng, length);
    std::array<std::uint32_t, 8> inputs;
    for (auto& v : inputs) {
      v = rng.next_u32();
    }
    const auto index_r11 =
        static_cast<std::uint32_t>(rng.bounded(random_program_buffer_words));

    const full_snapshot fast = run_random(prog, fast_arch, inputs, index_r11);
    const full_snapshot ref =
        run_random<ooo_reference_core>(prog, ref_arch, inputs, index_r11);
    expect_same_arch(fast.arch, ref.arch, seed, "fast vs reference");
    ASSERT_EQ(fast.cycles, ref.cycles) << "seed=" << seed;
    ASSERT_EQ(fast.mispredicts, ref.mispredicts) << "seed=" << seed;
    ASSERT_EQ(fast.wrong_path, ref.wrong_path) << "seed=" << seed;
    ASSERT_EQ(fast.marks.size(), ref.marks.size()) << "seed=" << seed;
    for (std::size_t m = 0; m < fast.marks.size(); ++m) {
      ASSERT_EQ(fast.marks[m].cycle, ref.marks[m].cycle) << "seed=" << seed;
    }
    // Bit-identity of the full activity stream, wrong-path events included.
    ASSERT_EQ(fast.activity, ref.activity) << "seed=" << seed;
    total_mispredicts += fast.mispredicts;
  }
  EXPECT_GT(total_mispredicts, 0u);
}

// ------------------------------------------------- directed flush drills

/// Branches renamed INSIDE a wrong-path episode (the flush must discard
/// them without consulting nested checkpoints): an alternating-outcome
/// conditional branch trains the bimodal counters into repeated
/// mispredicts whose wrong path immediately contains further conditional
/// and unconditional branches.
TEST(SpecEquivalence, NestedInFlightBranchesRecoverExactly) {
  asmx::program_builder b;
  b.load_constant(reg::r0, 0); // loop counter
  b.load_constant(reg::r1, 0); // accumulator A
  b.load_constant(reg::r2, 0); // accumulator B
  const std::uint32_t word = b.data_word(0x11223344);
  b.load_constant(reg::r10, word);

  // 24 unrolled iterations of: tst-like compare, conditional skip whose
  // taken-ness alternates, then a dense cluster of branches both paths
  // share.  The alternation defeats the 2-bit counters, so roughly every
  // other iteration renames its cluster down the wrong path first.
  for (int i = 0; i < 24; ++i) {
    b.emit(mk::dp_imm(isa::opcode::and_, reg::r3, reg::r0, 1));
    b.emit(mk::cmp_imm(reg::r3, 0));
    b.emit(mk::b(2, condition::eq));            // skip the next two
    b.emit(mk::dp_imm(isa::opcode::add, reg::r1, reg::r1, 3));
    b.emit(mk::b(1, condition::al));            // unconditional inside
    b.emit(mk::dp_imm(isa::opcode::add, reg::r2, reg::r2, 5));
    b.emit(mk::cmp_imm(reg::r1, 9));
    b.emit(mk::b(1, condition::lt));            // second conditional
    b.emit(mk::ldr(reg::r4, reg::r10, 0));
    b.emit(mk::dp_imm(isa::opcode::add, reg::r0, reg::r0, 1));
  }
  const asmx::program prog = b.build();

  const full_snapshot off =
      run_snapshot_of(prog, cortex_a7_ooo());
  for (const predictor_kind kind :
       {predictor_kind::static_btfn, predictor_kind::bimodal,
        predictor_kind::gshare}) {
    const full_snapshot on =
        run_snapshot_of(prog, cortex_a7_ooo_spec(spec_of(kind)));
    expect_same_arch(on.arch, off.arch, 0, predictor_kind_name(kind).data());
    EXPECT_GT(on.mispredicts, 0u) << predictor_kind_name(kind);
    // Determinism: the same run twice is bit-identical.
    const full_snapshot again =
        run_snapshot_of(prog, cortex_a7_ooo_spec(spec_of(kind)));
    EXPECT_EQ(again.cycles, on.cycles);
    EXPECT_EQ(again.activity, on.activity);
  }
}

/// Call chain deeper than the 8-entry RSB (overflow wraps), then more
/// returns than live entries (underflow pops stale slots): architectural
/// results still match the spec-off run, and the over/underflow behaviour
/// is deterministic.
TEST(SpecEquivalence, RsbOverflowAndUnderflowStayCorrect) {
  // fn(k) = bl fn(k+1) until depth 12, each frame saving lr to the stack
  // buffer; the return chain then unwinds through bx lr twelve times.
  constexpr int depth = 12; // > rsb_entries = 8
  asmx::program_builder b;
  const std::uint32_t stack = b.data_block(4 * (depth + 4), 4);
  b.load_constant(reg::r9, stack);
  b.load_constant(reg::r0, 0);

  // Layout: main calls frame 0 and then jumps over the whole chain to the
  // halt; each frame (4 instructions — save lr, bl next / leaf work,
  // restore lr, bx lr) calls the next one deeper.
  b.emit(mk::bl(1)); // frame 0 starts right after the jump below
  b.emit(mk::b(static_cast<std::int32_t>(4 * depth))); // over the chain
  for (int i = 0; i < depth; ++i) {
    b.emit(mk::str(reg::lr, reg::r9,
                   static_cast<std::uint32_t>(4 * i)));
    if (i + 1 < depth) {
      b.emit(mk::bl(2)); // next frame's first instruction
    } else {
      b.emit(mk::dp_imm(isa::opcode::add, reg::r0, reg::r0, 1)); // leaf
    }
    b.emit(mk::ldr(reg::lr, reg::r9,
                   static_cast<std::uint32_t>(4 * i)));
    b.emit(mk::bx(reg::lr));
  }
  const asmx::program prog = b.build();

  const full_snapshot off = run_snapshot_of(prog, cortex_a7_ooo());
  EXPECT_EQ(off.arch.regs[0], 1u); // the leaf ran exactly once

  speculation_config spec = spec_of(predictor_kind::bimodal);
  ASSERT_LT(spec.rsb_entries, depth);
  const full_snapshot on =
      run_snapshot_of(prog, cortex_a7_ooo_spec(spec));
  expect_same_arch(on.arch, off.arch, 0, "rsb overflow");
  // The 4 deepest wrapped-over frames return through stale RSB slots:
  // those returns mispredict, the flush recovers, results stay exact.
  EXPECT_GT(on.mispredicts, 0u);

  const full_snapshot again =
      run_snapshot_of(prog, cortex_a7_ooo_spec(spec));
  EXPECT_EQ(again.cycles, on.cycles);
  EXPECT_EQ(again.activity, on.activity);
}

// --------------------------------------------------- env knob + batching

TEST(SpecEnvKnob, ParsesStrictly) {
  EXPECT_EQ(parse_spec_predictor_env(nullptr), std::nullopt);
  EXPECT_EQ(parse_spec_predictor_env(""), std::nullopt);
  EXPECT_EQ(parse_spec_predictor_env("perfect"), predictor_kind::perfect);
  EXPECT_EQ(parse_spec_predictor_env("static"), predictor_kind::static_btfn);
  EXPECT_EQ(parse_spec_predictor_env("bimodal"), predictor_kind::bimodal);
  EXPECT_EQ(parse_spec_predictor_env("gshare"), predictor_kind::gshare);
  try {
    parse_spec_predictor_env("gshar");
    FAIL() << "expected simulation_error";
  } catch (const util::simulation_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gshar"), std::string::npos);
    EXPECT_NE(what.find("valid values"), std::string::npos);
    EXPECT_NE(what.find("bimodal"), std::string::npos);
  }
}

TEST(SpecEnvKnob, OverridesConfigLive) {
  ASSERT_EQ(setenv("USCA_SPEC_PREDICTOR", "gshare", 1), 0);
  {
    // A default (perfect) config now speculates...
    ooo_core core(crypto::generate_aes128_program().prog, cortex_a7_ooo());
    EXPECT_EQ(core.speculation().predictor, predictor_kind::gshare);
    EXPECT_EQ(effective_speculation(cortex_a7_ooo()).predictor,
              predictor_kind::gshare);
  }
  ASSERT_EQ(setenv("USCA_SPEC_PREDICTOR", "perfect", 1), 0);
  {
    // ...and "perfect" forces speculation OFF even for a gshare config.
    const micro_arch_config arch =
        cortex_a7_ooo_spec(spec_of(predictor_kind::gshare));
    ooo_core core(crypto::generate_aes128_program().prog, arch);
    EXPECT_EQ(core.speculation().predictor, predictor_kind::perfect);
    EXPECT_EQ(effective_speculation(arch).predictor, predictor_kind::perfect);
  }
  ASSERT_EQ(setenv("USCA_SPEC_PREDICTOR", "totally-bogus", 1), 0);
  EXPECT_THROW(effective_speculation(cortex_a7_ooo()), util::simulation_error);
  ASSERT_EQ(unsetenv("USCA_SPEC_PREDICTOR"), 0);
  EXPECT_EQ(effective_speculation(cortex_a7_ooo()).predictor,
            predictor_kind::perfect);
}

TEST(SpecValidation, RejectsOutOfRangeConfigs) {
  const auto check_throws = [](speculation_config spec) {
    spec.predictor = predictor_kind::bimodal;
    const micro_arch_config arch = cortex_a7_ooo_spec(spec);
    EXPECT_THROW(ooo_core(crypto::generate_aes128_program().prog, arch),
                 util::simulation_error);
  };
  speculation_config bad;
  bad.bp_table_bits = 1;
  check_throws(bad);
  bad = speculation_config{};
  bad.btb_entries = 48; // not a power of two
  check_throws(bad);
  bad = speculation_config{};
  bad.rsb_entries = 0;
  check_throws(bad);
  bad = speculation_config{};
  bad.resolve_latency = 0;
  check_throws(bad);

  // A real predictor is incompatible with the legacy penalty model.
  micro_arch_config arch =
      cortex_a7_ooo_spec(spec_of(predictor_kind::bimodal));
  arch.perfect_branch_prediction = false;
  EXPECT_THROW(ooo_core(crypto::generate_aes128_program().prog, arch),
               util::simulation_error);
}

// The branchy (non-constant-time) AES variant is the one victim whose
// branch directions are secret bits: every real predictor mispredicts
// on it, and none of that wrong-path traffic may touch the ciphertext.
TEST(SpecEquivalence, BranchyAesMispredictsWithoutCorruption) {
  const crypto::aes_program_layout layout =
      crypto::generate_aes128_branchy_program();
  const crypto::aes_key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};
  const crypto::aes_block pt = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a,
                                0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                                0xe0, 0x37, 0x07, 0x34};
  for (const predictor_kind kind :
       {predictor_kind::static_btfn, predictor_kind::bimodal,
        predictor_kind::gshare}) {
    ooo_core core(layout.prog, cortex_a7_ooo_spec(spec_of(kind)));
    crypto::install_aes_inputs(core.memory(), layout,
                               crypto::expand_key(key), pt);
    core.warm_caches();
    core.run();
    EXPECT_EQ(crypto::read_aes_state(core.memory(), layout),
              crypto::encrypt_block(pt, key))
        << predictor_kind_name(kind);
    EXPECT_GT(core.mispredicts(), 0u) << predictor_kind_name(kind);
    EXPECT_GT(core.wrong_path_renamed(), 0u) << predictor_kind_name(kind);
  }
}

/// Everything a batch lane and the oracle must agree on after one AES
/// run: registers, flags, the ciphertext block, cycles, marks, the
/// speculation counts and the whole activity stream.
void expect_lane_matches(const batch_ooo_core& batch, std::size_t lane,
                         const ooo_reference_core& ref,
                         const crypto::aes_program_layout& layout,
                         const std::string& what) {
  EXPECT_EQ(batch.state(lane).regs, ref.state().regs) << what;
  EXPECT_EQ(batch.state(lane).f, ref.state().f) << what;
  EXPECT_EQ(crypto::read_aes_state(batch.memory(lane), layout),
            crypto::read_aes_state(ref.memory(), layout))
      << what;
  EXPECT_EQ(batch.cycles(), ref.cycles()) << what;
  ASSERT_EQ(batch.marks().size(), ref.marks().size()) << what;
  for (std::size_t m = 0; m < ref.marks().size(); ++m) {
    EXPECT_EQ(batch.marks()[m].id, ref.marks()[m].id) << what;
    EXPECT_EQ(batch.marks()[m].cycle, ref.marks()[m].cycle) << what;
    EXPECT_EQ(batch.marks()[m].dual_pairs, ref.marks()[m].dual_pairs)
        << what;
  }
  EXPECT_EQ(batch.mispredicts(), ref.mispredicts()) << what;
  EXPECT_EQ(batch.wrong_path_renamed(), ref.wrong_path_renamed()) << what;
  EXPECT_EQ(activity_window_digest(batch.activity(lane), 0,
                                   static_cast<std::uint32_t>(ref.cycles())),
            activity_window_digest(ref.activity(), 0,
                                   static_cast<std::uint32_t>(ref.cycles())))
      << what;
  EXPECT_EQ(batch.activity(lane), ref.activity()) << what;
}

// Speculation runs in the batch core as shared control: every surviving
// lane of an 8-lane speculating batch must reproduce the oracle's run of
// the same trace exactly, wrong-path activity included.  Constant-time
// AES has no data-dependent branch, so no lane may eject; the branchy
// variant's secret-dependent branches must eject some.
TEST(SpecBatching, BatchLanesMatchReferenceOracle) {
  constexpr std::size_t lanes = 8;
  const crypto::aes_round_keys rk = crypto::expand_key(golden_key);
  util::xoshiro256 rng(0x5bec1a4e);
  std::array<crypto::aes_block, lanes> plaintexts;
  for (crypto::aes_block& pt : plaintexts) {
    for (std::uint8_t& b : pt) {
      b = rng.next_u8();
    }
  }
  for (const bool branchy : {false, true}) {
    const crypto::aes_program_layout layout =
        branchy ? crypto::generate_aes128_branchy_program()
                : crypto::generate_aes128_program();
    for (const predictor_kind kind :
         {predictor_kind::static_btfn, predictor_kind::bimodal,
          predictor_kind::gshare}) {
      const micro_arch_config arch = cortex_a7_ooo_spec(spec_of(kind));
      batch_ooo_core batch(program_image(layout.prog), arch, lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        crypto::install_aes_inputs(batch.memory(l), layout, rk,
                                   plaintexts[l]);
      }
      batch.warm_caches();
      batch.run();

      std::size_t ejected = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        if (batch.lane_diverged(l)) {
          ++ejected;
          continue;
        }
        ooo_reference_core ref(layout.prog, arch);
        crypto::install_aes_inputs(ref.memory(), layout, rk, plaintexts[l]);
        ref.warm_caches();
        ref.run();
        expect_lane_matches(batch, l, ref, layout,
                            std::string(branchy ? "branchy " : "ct ") +
                                std::string(predictor_kind_name(kind)) +
                                " lane " + std::to_string(l));
      }
      if (branchy) {
        EXPECT_GT(ejected, 0u) << predictor_kind_name(kind);
        EXPECT_GT(batch.mispredicts(), 0u) << predictor_kind_name(kind);
      } else {
        EXPECT_EQ(ejected, 0u) << predictor_kind_name(kind);
      }
    }
  }
}

// A speculating campaign batches like any other and delivers records
// byte-identical to an explicit USCA_SIM_BATCH=0 (per-trace) run.
TEST(SpecBatching, SpeculatingCampaignBatchedMatchesPerTrace) {
  core::campaign_config config;
  config.traces = 6;
  config.threads = 1;
  config.seed = 0x5becca3;
  config.backend = sim::backend_kind::ooo;
  config.uarch = cortex_a7_ooo_spec(spec_of(predictor_kind::gshare));
  config.sim_batch_lanes = -1; // the default lane count

  const crypto::aes_key key = golden_key;
  const auto collect = [&]() {
    core::trace_campaign campaign(config, key);
    std::vector<core::trace_record> records;
    campaign.run([&records](core::trace_record&& rec) {
      records.push_back(std::move(rec));
    });
    return records;
  };

  const std::vector<core::trace_record> batched = collect();
  ASSERT_EQ(setenv("USCA_SIM_BATCH", "0", 1), 0);
  const std::vector<core::trace_record> per_trace = collect();
  ASSERT_EQ(unsetenv("USCA_SIM_BATCH"), 0);

  ASSERT_EQ(batched.size(), per_trace.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].plaintext, per_trace[i].plaintext);
    EXPECT_EQ(batched[i].cycles, per_trace[i].cycles);
    ASSERT_EQ(batched[i].samples.size(), per_trace[i].samples.size());
    if (!batched[i].samples.empty()) {
      EXPECT_EQ(std::memcmp(batched[i].samples.data(),
                            per_trace[i].samples.data(),
                            batched[i].samples.size() * sizeof(double)),
                0);
    }
  }
}

} // namespace
} // namespace usca::sim
