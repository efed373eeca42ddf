// Cross-version pins of the in-order Cortex-A7 model's exact output on a
// fixed-seed random-program corpus.
//
// For every program × input of the corpus (seed 0xf022ba11, 12 programs
// of 50 instructions × 8 register inputs, drawn program first, then its
// inputs) and for every input of the directed program of
// BatchSimFuzz.ConditionalBranchEjectsDisagreeingLanes, one per-trace
// sim::pipeline run is folded into an FNV-1a digest: the full activity
// stream (cycle, component, port, toggles of every event, in emission
// order), the cycle, issue and dual-issue counts, every mark (id, cycle,
// dual_pairs), the final registers and flags, and the data buffer.
//
// The equivalence suites compare lane counts of one engine against each
// other; these constants are what ties that engine to the model's output
// across versions.  They were generated by running this computation on the
// original scalar per-trace model (print `got` below).  Do NOT update them
// to make a failure pass without first proving, via the differential
// engine matrix (tests/sim/differential_test.cpp) and the CPA suites, that
// the change to the modelled schedule or activity is intended.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "random_program.h"
#include "sim/pipeline.h"
#include "sim/uarch_activity.h"
#include "util/rng.h"

namespace usca::sim {
namespace {

using isa::reg;
using testing::random_program;
using testing::random_program_buffer_words;

class fnv_digest {
public:
  void mix(std::uint64_t value) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Folds one finished run of `core` into `digest`.  `buffer` is the data
/// buffer's address and `buffer_words` its length in words.
void mix_run(fnv_digest& digest, const pipeline& core, std::uint32_t buffer,
             std::size_t buffer_words) {
  digest.mix(core.cycles());
  digest.mix(core.instructions_issued());
  digest.mix(core.dual_issue_pairs());
  digest.mix(core.activity().size());
  for (const activity_event& ev : core.activity()) {
    digest.mix(ev.cycle);
    digest.mix((static_cast<std::uint64_t>(ev.comp) << 16) |
               (static_cast<std::uint64_t>(ev.lane) << 8) | ev.toggles);
  }
  digest.mix(core.marks().size());
  for (const mark_stamp& mark : core.marks()) {
    digest.mix(mark.id);
    digest.mix(mark.cycle);
    digest.mix(mark.dual_pairs);
  }
  for (const std::uint32_t r : core.state().regs) {
    digest.mix(r);
  }
  const isa::flags& f = core.state().f;
  digest.mix((f.n ? 8U : 0U) | (f.z ? 4U : 0U) | (f.c ? 2U : 0U) |
             (f.v ? 1U : 0U));
  for (std::size_t w = 0; w < buffer_words; ++w) {
    digest.mix(core.memory().read32(
        buffer + 4 * static_cast<std::uint32_t>(w)));
  }
}

// --------------------------------------------------------------- golden
// One digest per corpus program, folding its 8 inputs in input order.
constexpr std::array<std::uint64_t, 12> golden_fuzz_digests = {
    0xdd2276d4ca465348ULL, 0xc68e6eaa13e5c30aULL, 0x8570ce8da141e814ULL,
    0xb37a2fd18d008355ULL, 0xbcfb4312fdaf1ca2ULL, 0x2312189487ebccbeULL,
    0x717f4bea62199cf2ULL, 0x8f2fdbcd0ef90f68ULL, 0x50917562cedd2078ULL,
    0xeb1a0ba3874d2066ULL, 0x806ed2bb6bb25ea7ULL, 0x10312e4e24a6f3bcULL,
};
constexpr std::uint64_t golden_branch_digest = 0x5e574f3ed76e5e44ULL;

TEST(InorderActivityGolden, BatchSimFuzzCorpusIsPinned) {
  constexpr std::size_t inputs = 8;
  util::xoshiro256 rng(0xf022ba11);
  for (std::size_t round = 0; round < golden_fuzz_digests.size(); ++round) {
    // Draw order: the program, then every input.
    const asmx::program prog = random_program(rng, 50);
    const std::uint32_t buffer = *prog.symbol("buffer");
    std::array<std::array<std::uint32_t, 8>, inputs> init{};
    for (auto& regs : init) {
      for (std::uint32_t& v : regs) {
        v = rng.next_u32();
      }
    }

    pipeline core(prog, cortex_a7());
    fnv_digest digest;
    for (std::size_t l = 0; l < inputs; ++l) {
      core.reset();
      for (int r = 0; r < 8; ++r) {
        core.state().regs[static_cast<std::size_t>(r)] = init[l][r];
      }
      core.state().set_reg(reg::r10, buffer);
      core.warm_caches();
      core.run();
      mix_run(digest, core, buffer, random_program_buffer_words);
    }
    const std::uint64_t got = digest.value();
    EXPECT_EQ(got, golden_fuzz_digests[round])
        << "program " << round << ": digest 0x" << std::hex << got;
  }
}

TEST(InorderActivityGolden, ConditionalBranchProgramIsPinned) {
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
  const std::uint32_t buffer = *prog.symbol("buffer");

  // The four lane inputs of ConditionalBranchEjectsDisagreeingLanes, the
  // ejected ones included: here each is a plain per-trace run.
  const std::array<std::uint32_t, 4> r0 = {0, 7, 0, 9};
  pipeline core(prog, cortex_a7());
  fnv_digest digest;
  for (std::size_t l = 0; l < r0.size(); ++l) {
    core.reset();
    core.state().set_reg(reg::r0, r0[l]);
    core.state().set_reg(reg::r1,
                         0x1111u * (static_cast<std::uint32_t>(l) + 1));
    core.state().set_reg(reg::r2, 0xa5a5a5a5u);
    core.state().set_reg(reg::r10, buffer);
    core.warm_caches();
    core.run();
    mix_run(digest, core, buffer, 4);
  }
  const std::uint64_t got = digest.value();
  EXPECT_EQ(got, golden_branch_digest)
      << "digest 0x" << std::hex << got;
}

} // namespace
} // namespace usca::sim
