// The differential engine matrix: every core model, at every lane count,
// against one architectural oracle and against itself, on fixed-seed
// random programs (random_program.h).  It pins the separation of concerns
// the library rests on — micro-architecture changes timing and leakage,
// never semantics — for every design point at once.
//
// A design point is the in-order Cortex-A7 (dual-issue or scalar) or the
// OoO core under one of four engine shapes × four predictor settings.
// Its cells are the production engine at 1, 7 and 32 lanes and, for OoO,
// the oracle sim::ooo_reference_core.  Contracts, each asserted where it
// holds:
//
//   arch       every engine's final state, and every surviving lane's,
//              equals the functional executor's: r0-r15, flags, buffer;
//   oracle     the 1-lane OoO engine equals ooo_reference_core in every
//              field: registers, cycles, renamed, retired, multi-rename
//              cycles, mispredicts, wrong-path µops, marks, activity;
//   lanes      every surviving lane of a 7- or 32-lane run equals the same
//              engine's 1-lane run of its inputs in every field; the
//              leader is never ejected;
//   leakage    OoO activity differs from the in-order pipeline's on every
//              program, and every renamed µop retires;
//   predictor  each real predictor mispredicts and renames wrong-path µops
//              somewhere in the corpus; the perfect one never does.
//
// On a failure the shrinker deletes instructions while the same contract
// still fails in the same cell, and prints the minimal program.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "asmx/program.h"
#include "isa/disasm.h"
#include "random_program.h"
#include "sim/batch_sim.h"
#include "sim/functional_executor.h"
#include "sim/ooo/batch_ooo_core.h"
#include "sim/ooo/ooo_reference_core.h"
#include "util/rng.h"

namespace usca::sim {
namespace {

using testing::random_program;
using testing::random_program_buffer_words;

constexpr std::size_t max_lanes = 32;
/// random_program's prologue: movw/movt of r10, r11 and r12.
constexpr std::size_t prologue = 6;

/// One program and the r0-r7 inputs of every lane.
struct trial {
  asmx::program prog;
  std::array<std::array<std::uint32_t, 8>, max_lanes> inputs{};
};

trial draw_trial(std::uint64_t seed) {
  util::xoshiro256 rng(seed);
  // Short drains and long structural-pressure runs both.
  const int length = 20 + static_cast<int>(rng.bounded(60));
  trial t{random_program(rng, length), {}};
  for (auto& lane : t.inputs) {
    for (std::uint32_t& v : lane) {
      v = rng.next_u32();
    }
  }
  return t;
}

/// Everything a contract compares, for one lane of one run.
struct snapshot {
  std::array<std::uint32_t, 16> regs{};
  isa::flags flags;
  std::array<std::uint32_t, random_program_buffer_words> buffer{};
  std::uint64_t cycles = 0;
  std::uint64_t renamed = 0;
  std::uint64_t retired = 0;
  std::uint64_t multi_rename_cycles = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t wrong_path = 0;
  std::vector<mark_stamp> marks;
  activity_trace activity;
};

snapshot arch_of(const cpu_state& state, const mem::memory& memory,
                 const asmx::program& prog) {
  snapshot s;
  s.regs = state.regs;
  s.flags = state.f;
  const std::uint32_t buffer = *prog.symbol("buffer");
  for (std::uint32_t w = 0; w < random_program_buffer_words; ++w) {
    s.buffer[w] = memory.read32(buffer + 4 * w);
  }
  return s;
}

snapshot run_functional(const trial& t, std::size_t lane) {
  functional_executor iss(t.prog);
  std::copy(t.inputs[lane].begin(), t.inputs[lane].end(),
            iss.state().regs.begin());
  iss.run();
  return arch_of(iss.state(), iss.memory(), t.prog);
}

/// Runs every lane of `core`, lane l on input `first + l`; ejected lanes
/// come back empty.
std::vector<std::optional<snapshot>>
run_engine(batch_backend& core, const trial& t, std::size_t first) {
  core.reset();
  for (std::size_t l = 0; l < core.lanes(); ++l) {
    std::copy(t.inputs[first + l].begin(), t.inputs[first + l].end(),
              core.state(l).regs.begin());
  }
  core.warm_caches();
  core.run();
  std::vector<std::optional<snapshot>> lanes(core.lanes());
  for (std::size_t l = 0; l < core.lanes(); ++l) {
    if (core.lane_diverged(l)) {
      continue;
    }
    snapshot& s =
        lanes[l].emplace(arch_of(core.state(l), core.memory(l), t.prog));
    s.cycles = core.cycles();
    s.renamed = core.instructions_issued();
    const auto read_ooo = [&s](const auto& ooo) {
      s.retired = ooo.instructions_retired();
      s.multi_rename_cycles = ooo.multi_rename_cycles();
      s.mispredicts = ooo.mispredicts();
      s.wrong_path = ooo.wrong_path_renamed();
    };
    if (const auto* fast = dynamic_cast<const batch_ooo_core*>(&core)) {
      read_ooo(*fast);
    } else if (const auto* ref =
                   dynamic_cast<const ooo_reference_core*>(&core)) {
      read_ooo(*ref);
    }
    s.marks = core.marks();
    s.activity = core.activity(l);
  }
  return lanes;
}

/// The first field where `got` differs from `want` — over the registers,
/// flags and buffer alone when `arch_only` — or "" when they agree.
std::string first_difference(const snapshot& got, const snapshot& want,
                             bool arch_only) {
  for (std::size_t r = 0; r < got.regs.size(); ++r) {
    if (got.regs[r] != want.regs[r]) {
      std::string name = "r";
      return name += std::to_string(r);
    }
  }
  if (got.flags != want.flags || got.buffer != want.buffer) {
    return got.flags != want.flags ? "flags" : "buffer";
  }
  if (arch_only) {
    return "";
  }
  static constexpr std::pair<const char*, std::uint64_t snapshot::*>
      counters[] = {{"cycles", &snapshot::cycles},
                    {"renamed", &snapshot::renamed},
                    {"retired", &snapshot::retired},
                    {"multi_rename_cycles", &snapshot::multi_rename_cycles},
                    {"mispredicts", &snapshot::mispredicts},
                    {"wrong_path", &snapshot::wrong_path}};
  for (const auto& [name, field] : counters) {
    if (got.*field != want.*field) {
      return name;
    }
  }
  if (got.marks != want.marks) {
    return "marks";
  }
  // vector<activity_event>::operator== — cycle-exact, order-exact.
  return got.activity == want.activity ? "" : "activity";
}

struct design_point {
  std::string name;
  backend_kind kind;
  micro_arch_config arch;
  std::uint64_t seed_base;
};

void PrintTo(const design_point& dp, std::ostream* out) { *out << dp.name; }

struct failure {
  std::string cell;
  std::size_t lanes;
  std::string contract;
  std::string detail;
};

/// Runs every cell of `dp` on `t` and checks every per-program contract;
/// the first broken one comes back.  Adds the 1-lane run's mispredicts
/// and wrong-path µops to `sum`.
std::optional<failure> check(const design_point& dp, const trial& t,
                             std::array<std::uint64_t, 2>& sum) {
  const program_image image(t.prog);
  const auto cell = [&dp](std::size_t lanes, const char* engine = "") {
    return dp.name + engine + " x" + std::to_string(lanes);
  };
  // Per-input functional and 1-lane runs, made on first use.
  std::array<std::optional<snapshot>, max_lanes> oracle;
  std::array<std::optional<snapshot>, max_lanes> single;
  const std::unique_ptr<batch_backend> one =
      make_batch_backend(dp.kind, image, dp.arch, 1);
  const auto oracle_of = [&](std::size_t l) -> const snapshot& {
    return oracle[l] ? *oracle[l] : oracle[l].emplace(run_functional(t, l));
  };
  const auto single_of = [&](std::size_t l) -> const snapshot& {
    return single[l] ? *single[l]
                     : single[l].emplace(*run_engine(*one, t, l)[0]);
  };

  if (const std::string d = first_difference(single_of(0), oracle_of(0), true);
      !d.empty()) {
    return failure{cell(1), 1, "arch", d};
  }
  for (const std::size_t lanes : {std::size_t{7}, max_lanes}) {
    const std::unique_ptr<batch_backend> batch =
        make_batch_backend(dp.kind, image, dp.arch, lanes);
    const std::vector<std::optional<snapshot>> got = run_engine(*batch, t, 0);
    if (!got[0]) {
      return failure{cell(lanes), lanes, "lanes", "leader ejected"};
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!got[l]) {
        continue;
      }
      const std::string at = "lane " + std::to_string(l) + ": ";
      if (const std::string d = first_difference(*got[l], oracle_of(l), true);
          !d.empty()) {
        return failure{cell(lanes), lanes, "arch", at + d};
      }
      if (const std::string d = first_difference(*got[l], single_of(l), false);
          !d.empty()) {
        return failure{cell(lanes), lanes, "lanes", at + d};
      }
    }
  }
  if (dp.kind != backend_kind::ooo) {
    return std::nullopt;
  }

  micro_arch_config ref_arch = dp.arch;
  ref_arch.ooo.scheduler = ooo_scheduler::reference;
  const snapshot reference =
      *run_engine(*make_batch_backend(dp.kind, image, ref_arch, 1), t, 0)[0];
  if (const std::string d = first_difference(reference, oracle_of(0), true);
      !d.empty()) {
    return failure{cell(1, " reference"), 1, "arch", d};
  }
  const snapshot& fast = single_of(0);
  if (const std::string d = first_difference(fast, reference, false);
      !d.empty()) {
    return failure{cell(1), 1, "oracle", d};
  }
  if (fast.renamed != fast.retired) {
    return failure{cell(1), 1, "leakage", "renamed != retired"};
  }
  const std::unique_ptr<batch_backend> inorder =
      make_batch_backend(backend_kind::inorder, image, cortex_a7(), 1);
  if (run_engine(*inorder, t, 0)[0]->activity == fast.activity) {
    return failure{cell(1), 1, "leakage", "activity equals in-order"};
  }
  if (effective_speculation(dp.arch).predictor == predictor_kind::perfect &&
      (fast.mispredicts != 0 || fast.wrong_path != 0)) {
    return failure{cell(1), 1, "predictor", "perfect predictor mispredicted"};
  }
  sum[0] += fast.mispredicts;
  sum[1] += fast.wrong_path;
  return std::nullopt;
}

/// Deletes one instruction at a time after the prologue (never the final
/// halt), keeping each deletion after which `still_fails` holds, until no
/// single deletion does.
trial shrink(trial t, const std::function<bool(const trial&)>& still_fails) {
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t i = prologue; i + 1 < t.prog.code.size();) {
      trial candidate = t;
      candidate.prog.code.erase(candidate.prog.code.begin() +
                                static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        t = std::move(candidate);
        progress = true;
      } else {
        ++i;
      }
    }
  }
  return t;
}

/// The program as assembly (the prologue folded onto one line) and the
/// inputs of its first `lanes` lanes.
std::string describe(const trial& t, std::size_t lanes) {
  std::ostringstream out;
  out << t.prog.code.size() - prologue
      << " instructions after the prologue\n  ;";
  for (std::size_t i = 0; i < t.prog.code.size(); ++i) {
    out << (i < prologue ? " " : "  ") << isa::disassemble(t.prog.code[i])
        << (i + 1 < prologue ? ";" : "\n");
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    out << "  lane " << l << " r0-r7:" << std::hex;
    for (const std::uint32_t v : t.inputs[l]) {
      out << " 0x" << v;
    }
    out << std::dec << '\n';
  }
  return out.str();
}

class DifferentialMatrix : public ::testing::TestWithParam<design_point> {};

TEST_P(DifferentialMatrix, EveryContractHoldsOnTheCorpus) {
  const design_point& dp = GetParam();
  // 50 programs per OoO design point make 200 per shape and 200 per
  // predictor setting; the cheaper in-order points take 500 each.
  const int programs = dp.kind == backend_kind::ooo ? 50 : 500;
  std::array<std::uint64_t, 2> sum{}; // mispredicts, wrong-path µops
  for (int p = 0; p < programs; ++p) {
    const trial t = draw_trial(dp.seed_base + static_cast<std::uint64_t>(p));
    const std::optional<failure> f = check(dp, t, sum);
    if (!f) {
      continue;
    }
    const trial minimal = shrink(t, [&](const trial& candidate) {
      std::array<std::uint64_t, 2> ignored{};
      try {
        const std::optional<failure> g = check(dp, candidate, ignored);
        return g && g->cell == f->cell && g->contract == f->contract;
      } catch (const std::exception&) {
        return false; // a deletion that breaks the program is no repro
      }
    });
    FAIL() << f->cell << ": " << f->contract << " contract broken ("
           << f->detail << ") on program " << p
           << "; minimal repro: " << describe(minimal, f->lanes);
  }
  if (dp.kind == backend_kind::ooo &&
      effective_speculation(dp.arch).predictor != predictor_kind::perfect) {
    EXPECT_GT(sum[0], 0u);
    EXPECT_GT(sum[1], 0u);
  }
}

std::vector<design_point> design_points() {
  std::vector<design_point> points = {
      {"inorder_a7", backend_kind::inorder, cortex_a7(), 0xd1ff0000},
      {"inorder_a7_scalar", backend_kind::inorder, cortex_a7_scalar(),
       0xd1ff1000},
  };
  const std::pair<const char*, ooo_config> shapes[] = {
      {"default", ooo_config{}},
      // Every structural stall path; constant age-ring wrap-around.
      {"tiny", ooo_config{4, 1, 1, 2, 24, 1, 1}},
      // The 64-entry sizing cap: full-ring occupancy, 4-wide CDB.
      {"wide", ooo_config{64, 4, 4, 32, 128, 4, 8}},
      // Minimal PRF headroom: rename stalls on the free list.
      {"min_prf", ooo_config{16, 2, 2, 8, 19, 2, 2}},
  };
  for (const auto& [shape, ooo] : shapes) {
    for (const predictor_kind kind :
         {predictor_kind::perfect, predictor_kind::static_btfn,
          predictor_kind::bimodal, predictor_kind::gshare}) {
      speculation_config spec;
      spec.predictor = kind;
      if (kind == predictor_kind::gshare) {
        spec.resolve_latency = 5; // widen the wrong-path window
      }
      points.push_back({std::string("ooo_") + shape + "_" +
                            std::string(predictor_kind_name(kind)),
                        backend_kind::ooo, cortex_a7_ooo_spec(spec, ooo),
                        0xd1ff0000 + 0x1000 * points.size()});
    }
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DifferentialMatrix, ::testing::ValuesIn(design_points()),
    [](const ::testing::TestParamInfo<design_point>& info) {
      return info.param.name;
    });

// The shrinker on a synthetic failure, "a mul precedes a str": it must
// keep the prologue, the halt and exactly those two instructions.
TEST(DifferentialShrinker, KeepsOnlyWhatTheFailureNeeds) {
  const auto fails = [](const trial& t) {
    const auto& code = t.prog.code;
    const auto is = [](isa::opcode op) {
      return [op](const isa::instruction& i) { return i.op == op; };
    };
    return std::any_of(
        std::find_if(code.begin(), code.end(), is(isa::opcode::mul)),
        code.end(), is(isa::opcode::str));
  };
  std::uint64_t seed = 0x5e1f;
  while (!fails(draw_trial(seed))) {
    ++seed;
  }
  const trial original = draw_trial(seed);
  const trial minimal = shrink(original, fails);
  ASSERT_EQ(minimal.prog.code.size(), prologue + 3);
  EXPECT_TRUE(std::equal(minimal.prog.code.begin(),
                         minimal.prog.code.begin() + prologue,
                         original.prog.code.begin()));
  EXPECT_EQ(minimal.prog.code[prologue].op, isa::opcode::mul);
  EXPECT_EQ(minimal.prog.code[prologue + 1].op, isa::opcode::str);
  EXPECT_EQ(minimal.prog.code.back().op, isa::opcode::halt);
  const std::string text = describe(minimal, 2);
  EXPECT_NE(text.find("3 instructions after the prologue"), std::string::npos)
      << text;
  EXPECT_NE(text.find("  lane 1 r0-r7:"), std::string::npos) << text;
}

} // namespace
} // namespace usca::sim
