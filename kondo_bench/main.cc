// kondo_bench — end-to-end and per-layer benchmark of the kondo library.
//
//   kondo_bench --workload <campaign_3d|debloat_2d|serve_mixed|sharded_fleet>
//               --seed N --seconds S --trace 0|1 [--tiny] [--inputs-only]
//
// Scratch files go to .bench_work/<workload>/ (removed at exit); the traced
// run writes its spans to .bench_work/trace-<workload>.json.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (from a traced pass, next to an untraced one for the tracing overhead).
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every correctness gate passed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "trace.h"
#include "workloads.h"

namespace kondo_bench {

void PrintInputsHash(const Args& args, uint64_t hash) {
  std::printf("inputs %s %016llx\n", args.workload.c_str(),
              static_cast<unsigned long long>(hash));
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kondo_bench --workload W --seed N --seconds S "
               "--trace 0|1 [--tiny] [--inputs-only]\n"
               "workloads: campaign_3d debloat_2d serve_mixed sharded_fleet\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string text;
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--inputs-only") {
      args->inputs_only = true;
    } else if (flag == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (flag == "--seed") {
      if (!value(&text)) return false;
      args->seed = std::strtoull(text.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      if (!value(&text)) return false;
      args->seconds = std::atof(text.c_str());
    } else if (flag == "--trace") {
      if (!value(&text) || (text != "0" && text != "1")) return false;
      args->trace = text == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  using WorkloadFn = int (*)(const Args&, Tracer&, Results&);
  WorkloadFn run = nullptr;
  if (args.workload == "campaign_3d") {
    run = RunCampaign3d;
  } else if (args.workload == "debloat_2d") {
    run = RunDebloat2d;
  } else if (args.workload == "serve_mixed") {
    run = RunServeMixed;
  } else if (args.workload == "sharded_fleet") {
    run = RunShardedFleet;
  } else {
    return Usage();
  }
  args.work_dir = ".bench_work/" + args.workload;
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "kondo_bench: cannot create %s: %s\n",
                 args.work_dir.c_str(), ec.message().c_str());
    return 1;
  }

  Tracer tracer;
  Results results;
  const int status = run(args, tracer, results);
  std::filesystem::remove_all(args.work_dir, ec);
  if (status != 0) {
    std::fprintf(stderr, "kondo_bench: %s set-up failed\n",
                 args.workload.c_str());
    return status;
  }
  if (args.inputs_only) {
    return 0;
  }
  results.Set("process.peak_rss_mb", PeakRssMb());
  if (args.trace) {
    const std::string trace_path =
        ".bench_work/trace-" + args.workload + ".json";
    if (!tracer.WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "kondo_bench: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s\n", tracer.Spans().size(),
                trace_path.c_str());
  }
  const bool complete = results.PrintJson(args.trace);
  return complete && results.correct() ? 0 : 1;
}

}  // namespace kondo_bench

int main(int argc, char** argv) { return kondo_bench::Main(argc, argv); }
