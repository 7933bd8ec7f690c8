#include "data_gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "array/kdf_file.h"
#include "bench_util.h"

namespace kondo_bench {

kondo::DataArray MakeFieldArray(const kondo::Shape& shape, uint64_t seed) {
  kondo::DataArray array(shape, kondo::DType::kFloat64);
  SplitMix mix(seed);
  const double phase = mix.Unit() * 6.283185307179586;
  const double freq = 0.01 + 0.04 * mix.Unit();
  const int64_t inner = shape.dim(shape.rank() - 1);
  for (int64_t id = 0; id < shape.NumElements(); ++id) {
    const double row = static_cast<double>(id / inner);
    const double col = static_cast<double>(id % inner);
    const double smooth =
        std::sin(freq * row + phase) * std::cos(1.3 * freq * col - phase);
    const double noise = (mix.Unit() - 0.5) * 0.05;
    array.SetLinear(id, std::round((smooth + noise) * 1024.0) / 1024.0);
  }
  return array;
}

bool WriteChunkedKdf(const std::string& path, const kondo::DataArray& array) {
  std::vector<int64_t> chunk_dims;
  for (int d = 0; d < array.shape().rank(); ++d) {
    chunk_dims.push_back(std::max<int64_t>(2, array.shape().dim(d) / 16));
  }
  const kondo::Status status = kondo::WriteKdfFile(
      path, array, kondo::LayoutKind::kChunked, chunk_dims);
  if (!status.ok()) {
    std::fprintf(stderr, "kondo_bench: write %s: %s\n", path.c_str(),
                 status.ToString().c_str());
  }
  return status.ok();
}

}  // namespace kondo_bench
