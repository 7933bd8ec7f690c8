#ifndef KONDO_WORKLOADS_MULTI_FILE_PROGRAM_H_
#define KONDO_WORKLOADS_MULTI_FILE_PROGRAM_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "array/index_set.h"
#include "array/shape.h"
#include "fuzz/param_space.h"
#include "workloads/program.h"

namespace kondo {

/// Element-read callback for multi-file execution: (file ordinal, index).
using MultiReadFn = std::function<void(int file, const Index&)>;

/// Per-file index subsets of one run or campaign.
using MultiIndexSets = std::vector<IndexSet>;

/// An application reading several self-describing data arrays — the general
/// setting of the paper (footnote 1 and Section VI): "an application may use
/// multiple data files, each self-describing, and represented by multiple
/// data arrays. Our approach generalizes to this real setting."
///
/// Each file has a name and shape; runs access any subset of the files.
/// Kondo's multi-file pipeline fuzzes once and carves each file's observed
/// index points independently.
class MultiFileProgram {
 public:
  virtual ~MultiFileProgram() = default;

  virtual std::string_view name() const = 0;
  virtual const ParamSpace& param_space() const = 0;

  /// Number of data files the application declares (its D_1 .. D_k).
  virtual int num_files() const = 0;
  virtual std::string_view file_name(int file) const = 0;
  virtual const Shape& file_shape(int file) const = 0;

  /// Every file's shape in ordinal order: the campaign's file geometry.
  std::vector<Shape> FileShapes() const;

  /// Runs the program for `v`, reporting every access as (file, index).
  virtual void Execute(const ParamValue& v,
                       const MultiReadFn& read) const = 0;

  /// The per-file index subsets `I_v` of one run.
  MultiIndexSets AccessSets(const ParamValue& v) const;

  /// Per-file ground truths `I_Θ` by enumeration over an integer Θ.
  MultiIndexSets GroundTruths(double max_enumerated_valuations = 2e6) const;
};

/// A concrete two-file scientific workload: a storm-tracking application
/// reading (a) a 2-D terrain elevation grid along the storm track and (b) a
/// 3-D atmospheric mesh column above each track point. Mirrors Fig. 2's
/// container with data dependencies D1, D2 of which a run touches both —
/// but only small portions of each.
///
/// Parameters: (x0, y0) the storm entry point. The track walks diagonally
/// from (x0, y0), reading terrain cells under the track and the full
/// pressure column of the (coarser) atmosphere mesh above every other
/// track cell. The guard x0 <= y0 mirrors Listing 1's constraint.
class StormTrackProgram final : public MultiFileProgram {
 public:
  /// `n` is the terrain extent (atmosphere is n/2 x n/2 x levels).
  explicit StormTrackProgram(int64_t n = 64, int64_t levels = 16);

  std::string_view name() const override { return "STORM"; }
  const ParamSpace& param_space() const override { return space_; }
  int num_files() const override { return 2; }
  std::string_view file_name(int file) const override {
    return file == 0 ? "terrain" : "atmosphere";
  }
  const Shape& file_shape(int file) const override {
    return file == 0 ? terrain_shape_ : atmosphere_shape_;
  }
  void Execute(const ParamValue& v, const MultiReadFn& read) const override;

 private:
  int64_t n_;
  int64_t levels_;
  ParamSpace space_;
  Shape terrain_shape_;
  Shape atmosphere_shape_;
};

/// A four-file climate-analysis workload for per-file sharding: a regional
/// study reading (a) a 2-D sea-surface-temperature grid, (b) a 3-D wind
/// mesh, (c) a 2-D precipitation grid, and (d) a 1-D coastline profile.
/// With four files of distinct ranks and extents, a `--shards 4` campaign
/// assigns exactly one file per shard — the natural partition the planner
/// defaults to.
///
/// Parameters: (lat0, lon0) the study region's anchor cell, integers in
/// [0, n-1] with the Listing-1-style guard lat0 <= lon0. The study scans an
/// SST block from the anchor, samples wind columns above every other block
/// cell on the coarser mesh, follows precipitation along the block
/// diagonal, and reads the coastline segment at the anchor longitude.
class ClimateRegionProgram final : public MultiFileProgram {
 public:
  /// `n` is the grid extent (wind mesh is n/2 x n/2 x levels).
  explicit ClimateRegionProgram(int64_t n = 64, int64_t levels = 12);

  std::string_view name() const override { return "CLIMATE"; }
  const ParamSpace& param_space() const override { return space_; }
  int num_files() const override { return 4; }
  std::string_view file_name(int file) const override;
  const Shape& file_shape(int file) const override;
  void Execute(const ParamValue& v, const MultiReadFn& read) const override;

 private:
  int64_t n_;
  int64_t levels_;
  ParamSpace space_;
  Shape sst_shape_;
  Shape wind_shape_;
  Shape precip_shape_;
  Shape coast_shape_;
};

/// Presents a single-file `Program` as a one-file MultiFileProgram so the
/// sharding pipeline (whose chunk-range splitter partitions large single
/// files) applies uniformly — `--shards` works on every registered program,
/// not just the multi-file workloads.
class SingleFileProgramAdapter final : public MultiFileProgram {
 public:
  explicit SingleFileProgramAdapter(std::unique_ptr<Program> program);

  std::string_view name() const override { return program_->name(); }
  const ParamSpace& param_space() const override {
    return program_->param_space();
  }
  int num_files() const override { return 1; }
  std::string_view file_name(int /*file*/) const override { return "data"; }
  const Shape& file_shape(int /*file*/) const override {
    return program_->data_shape();
  }
  void Execute(const ParamValue& v, const MultiReadFn& read) const override;

  const Program& program() const { return *program_; }

 private:
  std::unique_ptr<Program> program_;
};

}  // namespace kondo

#endif  // KONDO_WORKLOADS_MULTI_FILE_PROGRAM_H_
