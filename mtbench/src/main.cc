// MTBase benchmark driver. Runs one workload through the public mt::Session
// API, checks every result, prints a human-readable summary and, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   mtbench_driver --workload mth-all|mth-own|serving --seed N --seconds S
//                  --trace 0|1 [--out-dir DIR] [--corrupt-expected]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when a correctness gate fired, 2 on bad arguments or set-up
// failure (then without a result line).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, mtbench::Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--workload" && value(&v)) {
      a->workload = v;
    } else if (flag == "--seed" && value(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds" && value(&v)) {
      a->seconds = std::atof(v.c_str());
    } else if (flag == "--trace" && value(&v)) {
      a->trace = v == "1";
    } else if (flag == "--out-dir" && value(&v)) {
      a->out_dir = v;
    } else if (flag == "--corrupt-expected") {
      a->corrupt_expected = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", argv[i]);
      return false;
    }
  }
  return (a->workload == "mth-all" || a->workload == "mth-own" ||
          a->workload == "serving") &&
         a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  mtbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mtbench_driver --workload mth-all|mth-own|serving "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // The tenant-isolation proofs stay on, as a multi-tenant deployment runs
  // them: every plan is verified and every rewrite audited.
  setenv("MTBASE_VERIFY_PLANS", "1", 1);
  setenv("MTBASE_AUDIT_REWRITES", "1", 1);

  mtbench::Report report;
  const mtbase::Status st =
      args.workload == "serving"
          ? mtbench::RunServing(args, &report)
          : mtbench::RunMth(args, args.workload == "mth-all", &report);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: set-up failed: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 2;
  }
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  const mtbench::Outcome& o = report.outcome;
  if (o.failed > 0) {
    std::printf("correctness: %llu of %llu checks FAILED; first: %s\n",
                static_cast<unsigned long long>(o.failed),
                static_cast<unsigned long long>(o.attempted),
                o.first_failure.c_str());
  } else {
    std::printf("correctness: all %llu checks passed\n",
                static_cast<unsigned long long>(o.attempted));
  }
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return o.failed > 0 ? 1 : 0;
}
