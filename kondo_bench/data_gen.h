// Seeded input data for the workloads that read real files.

#ifndef KONDO_BENCH_DATA_GEN_H_
#define KONDO_BENCH_DATA_GEN_H_

#include <cstdint>
#include <string>

#include "array/data_array.h"
#include "array/shape.h"

namespace kondo_bench {

/// A float64 field shaped like simulation output: a smooth wave pattern
/// whose phase comes from `seed`, plus seeded noise, quantised to 1/1024
/// so the pack codecs see realistic, partly compressible values.
kondo::DataArray MakeFieldArray(const kondo::Shape& shape, uint64_t seed);

/// Writes `array` as a chunked KDF (chunk edge = max(2, extent / 16), the
/// CLI's make-data default). Returns false on failure (and says why).
bool WriteChunkedKdf(const std::string& path, const kondo::DataArray& array);

}  // namespace kondo_bench

#endif  // KONDO_BENCH_DATA_GEN_H_
