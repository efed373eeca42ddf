// Golden-snapshot pin of the per-cycle activity counts for the AES
// round-1 window — the exact window every CPA/TVLA experiment of the
// paper synthesizes traces from — on both cycle-level backends.
//
// The pinned quantity is sim::activity_window_digest: an FNV-1a fold of
// the per-(cycle, component) toggle sums over [mark_encrypt_begin,
// mark_round1_end).  Those sums are precisely what the power synthesizer
// weights into samples, so any scheduler or pipeline change that perturbs
// the power model's input — a shifted issue cycle, a dropped broadcast, a
// re-ordered wakeup — changes the digest and fails here loudly, while
// refactors that keep the activity stream bit-identical (the fast
// scheduler's contract) pass untouched.
//
// The constants were generated by running this very computation once
// (print `digest` below) and are part of the repo's regression surface:
// do NOT update them to make a failure pass without first proving, via
// the differential engine matrix (tests/sim/differential_test.cpp) and
// the CPA suites, that the change to the underlying schedule is intended.
#include <gtest/gtest.h>

#include <cstdint>

#include "crypto/aes_codegen.h"
#include "sim/ooo/ooo_core.h"
#include "sim/ooo/ooo_reference_core.h"
#include "sim/pipeline.h"
#include "sim/uarch_activity.h"

namespace usca::sim {
namespace {

// Fixed FIPS-197 key and an arbitrary fixed plaintext: the digest pins
// one concrete execution, not a distribution.
constexpr crypto::aes_key golden_key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                        0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                        0x09, 0xcf, 0x4f, 0x3c};
constexpr crypto::aes_block golden_plaintext = {
    0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
    0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};

/// Runs one AES encryption on `core` and returns the round-1 window
/// digest together with the window bounds (for the sanity expectations).
struct window_digest {
  std::uint64_t digest = 0;
  std::uint64_t window_begin = 0;
  std::uint64_t window_end = 0;
};

window_digest aes_round1_digest(backend& core,
                                const crypto::aes_program_layout& layout) {
  const crypto::aes_round_keys rk = crypto::expand_key(golden_key);
  crypto::install_aes_inputs(core.memory(), layout, rk, golden_plaintext);
  core.warm_caches();
  core.run();

  window_digest result;
  for (const mark_stamp& mark : core.marks()) {
    if (mark.id == crypto::mark_encrypt_begin) {
      result.window_begin = mark.cycle;
    }
    if (mark.id == crypto::mark_round1_end) {
      result.window_end = mark.cycle;
    }
  }
  EXPECT_LT(result.window_begin, result.window_end);
  result.digest = activity_window_digest(
      core.activity(), static_cast<std::uint32_t>(result.window_begin),
      static_cast<std::uint32_t>(result.window_end));
  return result;
}

// --------------------------------------------------------------- golden
// Regenerate by printing `got.digest` (see the header comment).
constexpr std::uint64_t golden_inorder_digest = 0xef068f4118699758ULL;
constexpr std::uint64_t golden_ooo_digest = 0xcc24a3dc1eafa858ULL;

TEST(OooActivityGolden, InorderAesRound1WindowDigestIsPinned) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  pipeline core(layout.prog, cortex_a7());
  const window_digest got = aes_round1_digest(core, layout);
  EXPECT_EQ(got.digest, golden_inorder_digest)
      << "in-order digest 0x" << std::hex << got.digest << " window=["
      << std::dec << got.window_begin << ", " << got.window_end << ")";
}

TEST(OooActivityGolden, OooAesRound1WindowDigestIsPinned) {
  const crypto::aes_program_layout layout = crypto::generate_aes128_program();
  ooo_core fast(layout.prog, cortex_a7_ooo());
  const window_digest got = aes_round1_digest(fast, layout);
  EXPECT_EQ(got.digest, golden_ooo_digest)
      << "ooo digest 0x" << std::hex << got.digest << " window=["
      << std::dec << got.window_begin << ", " << got.window_end << ")";

  // The reference scheduler must land on the same pinned digest — the
  // golden constant doubles as a cross-scheduler equivalence check on
  // the one window the paper's experiments actually consume.
  micro_arch_config ref_arch = cortex_a7_ooo();
  ref_arch.ooo.scheduler = ooo_scheduler::reference;
  ooo_reference_core ref(layout.prog, ref_arch);
  const window_digest ref_got = aes_round1_digest(ref, layout);
  EXPECT_EQ(ref_got.digest, golden_ooo_digest);
  EXPECT_EQ(ref_got.window_begin, got.window_begin);
  EXPECT_EQ(ref_got.window_end, got.window_end);
}

} // namespace
} // namespace usca::sim
