// usca_perfbench: runs one benchmark workload and prints its metrics.
//
//   usca_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--traces N] [--inject wrong_key|corrupt_shard]
//                  [--work-root DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// ledger.  --traces overrides the workload's fixed trace count (the
// benchmark's own tests use tiny sizes) and --inject plants a fault the
// output checks must count.  Stores go to a private directory created
// under --work-root and removed at exit.  The last stdout line is the
// result: {"correct", "attempted", "failed", "metrics"}; the line before
// it records the engine the numbers were measured on.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "sim/batch_sim.h"
#include "stats/batch_kernels.h"
#include "util/json_writer.h"

namespace {

using namespace perfbench;

/// Variables that silently change which engine a run measures.
constexpr const char* engine_env[] = {
    "USCA_SIM_BATCH",   "USCA_SPEC_PREDICTOR", "USCA_OOO_REFERENCE",
    "USCA_BATCH_KERNEL", "USCA_TELEMETRY",     "USCA_FAILPOINT"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "usca_perfbench: %s\n"
               "usage: usca_perfbench --workload "
               "cpa_inorder|cpa_ooo_batched|spec_ooo_tvla|archive_attack "
               "--seed N --seconds S --trace 0|1 [--traces N] "
               "[--inject wrong_key|corrupt_shard] [--work-root DIR]\n",
               why);
  std::exit(2);
}

template <typename T> T parse_number(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    usage(("invalid number '" + text + "'").c_str());
  }
  return value;
}

options parse_args(int argc, char** argv, std::string& work_root) {
  options opt;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + key).c_str());
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      const auto wl = parse_workload(value);
      if (!wl) {
        usage(("unknown workload '" + value + "'").c_str());
      }
      opt.wl = *wl;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = parse_number<std::uint64_t>(value);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = parse_number<double>(value);
      if (!(opt.seconds > 0.0)) {
        usage("--seconds must be positive");
      }
    } else if (key == "--trace") {
      const int trace = parse_number<int>(value);
      if (trace != 0 && trace != 1) {
        usage("--trace takes 0 or 1");
      }
      opt.trace = trace == 1;
    } else if (key == "--traces") {
      opt.traces = parse_number<std::size_t>(value);
      if (opt.traces < 16) {
        usage("--traces wants at least 16");
      }
    } else if (key == "--inject") {
      if (value == "wrong_key") {
        opt.inject = fault::wrong_key;
      } else if (value == "corrupt_shard") {
        opt.inject = fault::corrupt_shard;
      } else {
        usage(("unknown fault '" + value + "'").c_str());
      }
    } else if (key == "--work-root") {
      work_root = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload || !have_seed) {
    usage("--workload and --seed are required");
  }
  return opt;
}

/// The run's private directory for stores and shards; removed on exit.
class work_dir {
public:
  explicit work_dir(const std::string& root) {
    std::filesystem::create_directories(root);
    std::string pattern = root + "/run-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a run directory under " + root);
    }
    path_ = pattern;
  }
  ~work_dir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  work_dir(const work_dir&) = delete;
  work_dir& operator=(const work_dir&) = delete;
  const std::string& path() const { return path_; }

private:
  std::string path_;
};

void print_context(const options& opt) {
  util::json_writer w;
  w.begin_object();
  w.key("context");
  w.begin_object();
  w.member("workload", workload_name(opt.wl));
  w.member("seed", opt.seed);
  w.member("trace", opt.trace);
  w.member("sim_batch_lanes",
           static_cast<std::uint64_t>(sim::resolve_sim_batch_lanes(-1)));
  w.member("batch_kernel", stats::active_kernels().name);
  w.member("nproc",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.member("workers", static_cast<std::uint64_t>(
                          opt.trace ? campaign_workers : timed_workers));
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

void print_result(const outcome& out) {
  util::json_writer w;
  w.begin_object();
  w.member("correct", out.failed == 0 && out.problems.empty());
  w.member("attempted", out.attempted);
  w.member("failed", out.failed);
  w.key("metrics");
  w.begin_object();
  for (const metric& m : out.metrics) {
    w.key(m.name);
    w.begin_object();
    w.member("value", std::isfinite(m.value) ? m.value : 0.0);
    w.member("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

} // namespace

int main(int argc, char** argv) {
  std::string work_root = ".bench_build/tmp";
  options opt = parse_args(argc, argv, work_root);
  for (const char* name : engine_env) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "usca_perfbench: refusing to run with %s set (it changes "
                   "the engine being measured)\n",
                   name);
      return 2;
    }
  }

  outcome out;
  try {
    const work_dir dir(work_root);
    opt.work_dir = dir.path();
    print_context(opt);
    out = opt.trace ? run_traced(opt) : run_timed(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "usca_perfbench: %s\n", e.what());
    return 1;
  }
  if (out.failed > out.attempted) {
    out.failed = out.attempted;
  }
  std::map<std::string, int> problems;
  for (const std::string& p : out.problems) {
    ++problems[p];
  }
  for (const auto& [text, count] : problems) {
    std::fprintf(stderr, "usca_perfbench: FAILED CHECK (%dx): %s\n", count,
                 text.c_str());
  }
  print_result(out);
  return out.failed == 0 && out.problems.empty() ? 0 : 1;
}
