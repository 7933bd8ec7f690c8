// The four workloads. Each runs its set-up, then measurement passes until
// `args.seconds` have elapsed (at least its own minimum; the traced run
// makes exactly one untraced and one traced pass over the same inputs),
// checks every output, and fills `results`. A non-zero return is a fatal
// error (set-up failed).

#ifndef KONDO_BENCH_WORKLOADS_H_
#define KONDO_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"
#include "trace.h"

namespace kondo_bench {

int RunCampaign3d(const Args& args, Tracer& tracer, Results& results);
int RunDebloat2d(const Args& args, Tracer& tracer, Results& results);
int RunServeMixed(const Args& args, Tracer& tracer, Results& results);
int RunShardedFleet(const Args& args, Tracer& tracer, Results& results);

/// True while another measurement pass should start: an untraced run makes
/// at least `min_passes` and goes on until `args.seconds` have elapsed.
inline bool MorePasses(const Args& args, int passes_done, int64_t start_ns,
                       int min_passes) {
  if (args.trace) {
    return passes_done < 2;
  }
  return passes_done < min_passes ||
         static_cast<double>(NowNanos() - start_ns) * 1e-9 < args.seconds;
}

/// Which seed set a pass uses: campaign seeds (or the request stream, or
/// the lineage store) come from the workload seed and this number. An
/// untraced run cycles through `sets` sets, one per pass, so its medians
/// average over several campaigns; the traced run repeats set 0 so its two
/// passes do the same work.
inline int SeedPass(const Args& args, int pass, int sets) {
  return args.trace ? 0 : pass % sets;
}

/// Seed of the input `tag` in seed set `set`.
inline uint64_t SetSeed(const Args& args, const std::string& tag, int set) {
  return DeriveSeed(args.seed, tag + "/" + std::to_string(set));
}

/// Prints "inputs <workload> <hash>" for the smoke test's seed checks.
void PrintInputsHash(const Args& args, uint64_t hash);

}  // namespace kondo_bench

#endif  // KONDO_BENCH_WORKLOADS_H_
