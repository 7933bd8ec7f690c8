#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "array/data_array.h"
#include "array/kdf_file.h"
#include "audit/auditor.h"
#include "audit/event.h"
#include "audit/offset_mapper.h"
#include "audit/traced_file.h"
#include "common/rng.h"
#include "provenance/crc32.h"
#include "provenance/kel2_format.h"
#include "provenance/kel2_reader.h"
#include "provenance/kel2_writer.h"
#include "provenance/persist.h"
#include "provenance/provenance_query.h"
#include "provenance/provenance_store.h"
#include "provenance/varint.h"

namespace kondo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Event MakeEvent(int64_t pid, int64_t file_id, EventType type, int64_t offset,
                int64_t size) {
  Event event;
  event.id = EventId{pid, file_id};
  event.type = type;
  event.offset = offset;
  event.size = size;
  return event;
}

bool SameEvent(const Event& a, const Event& b) {
  return a.id == b.id && a.type == b.type && a.offset == b.offset &&
         a.size == b.size;
}

void ExpectSameEvents(const std::vector<Event>& got,
                      const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameEvent(got[i], want[i]))
        << "event " << i << ": got " << got[i] << " want " << want[i];
  }
}

// Event stream generators for the round-trip property tests: the three
// access patterns named in the acceptance criteria.

/// Near-sequential stencil sweeps: several runs, each scanning a window
/// with a fixed element width — the pattern KEL2's delta coding targets.
std::vector<Event> StencilStream(int64_t num_events, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(num_events));
  int64_t pid = 1;
  int64_t offset = 64;
  const int64_t width = 16;
  for (int64_t i = 0; i < num_events; ++i) {
    if (i % 4096 == 0) {
      ++pid;
      offset = rng.UniformInt(0, 1024);
      events.push_back(MakeEvent(pid, 1, EventType::kOpen, 0, 0));
      continue;
    }
    events.push_back(MakeEvent(pid, 1, EventType::kPread, offset, width));
    offset += width;
  }
  return events;
}

/// Uniformly random positioned reads over a large file.
std::vector<Event> UniformStream(int64_t num_events, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(num_events));
  for (int64_t i = 0; i < num_events; ++i) {
    events.push_back(MakeEvent(rng.UniformInt(1, 8), rng.UniformInt(1, 3),
                               EventType::kPread,
                               rng.UniformInt(0, 1 << 24),
                               rng.UniformInt(1, 4096)));
  }
  return events;
}

/// Random cluster centers with short sequential bursts inside each.
std::vector<Event> ClusteredStream(int64_t num_events, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(num_events));
  while (static_cast<int64_t>(events.size()) < num_events) {
    const int64_t center = rng.UniformInt(0, 1 << 22);
    const int64_t pid = rng.UniformInt(1, 4);
    const int64_t burst = rng.UniformInt(1, 64);
    int64_t offset = center;
    for (int64_t i = 0;
         i < burst && static_cast<int64_t>(events.size()) < num_events;
         ++i) {
      const int64_t size = rng.UniformInt(8, 128);
      events.push_back(MakeEvent(pid, 1, EventType::kRead, offset, size));
      offset += size;
    }
  }
  return events;
}

std::string WriteKel2(const std::string& name,
                      const std::vector<Event>& events,
                      int64_t events_per_block = 512) {
  const std::string path = TempPath(name);
  Kel2WriterOptions options;
  options.events_per_block = events_per_block;
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path, options);
  EXPECT_TRUE(writer.ok()) << writer.status();
  for (const Event& event : events) {
    EXPECT_TRUE(writer->Append(event).ok());
  }
  EXPECT_TRUE(writer->Close().ok());
  return path;
}

// ---------------------------------------------------------------- varint --

TEST(VarintTest, RoundTripBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (uint64_t v : values) {
    AppendVarint(v, &buf);
  }
  VarintReader reader(buf.data(), buf.size());
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(reader.Next(&got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(VarintTest, RoundTripRandomSigned) {
  Rng rng(7);
  std::string buf;
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) {
    // Mix magnitudes so every varint length is exercised.
    const int shift = static_cast<int>(rng.UniformInt(0, 62));
    int64_t v = static_cast<int64_t>(rng.NextU64() >> shift);
    if (rng.Bernoulli(0.5)) {
      v = -v;
    }
    values.push_back(v);
    AppendSignedVarint(v, &buf);
  }
  values.push_back(std::numeric_limits<int64_t>::min());
  AppendSignedVarint(values.back(), &buf);
  values.push_back(std::numeric_limits<int64_t>::max());
  AppendSignedVarint(values.back(), &buf);

  VarintReader reader(buf.data(), buf.size());
  for (int64_t v : values) {
    int64_t got = 0;
    ASSERT_TRUE(reader.NextSigned(&got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  AppendVarint(1ull << 40, &buf);
  VarintReader reader(buf.data(), buf.size() - 1);
  uint64_t value;
  EXPECT_FALSE(reader.Next(&value));
}

TEST(VarintTest, SmallMagnitudesStayShort) {
  std::string buf;
  AppendSignedVarint(-1, &buf);
  AppendSignedVarint(1, &buf);
  AppendSignedVarint(0, &buf);
  EXPECT_EQ(buf.size(), 3u);  // Zigzag keeps sign bits out of the way.
}

// ----------------------------------------------------------------- crc32 --

TEST(Crc32Test, KnownVector) {
  // The classic IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

/// The CRC one bit at a time: the definition the table-driven code must
/// reproduce.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::vector<uint8_t> buffer(64 + 8);
  Rng rng(41);
  for (uint8_t& byte : buffer) {
    byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t length = 0; length <= 64; ++length) {
      EXPECT_EQ(Crc32(buffer.data() + start, length),
                BitwiseCrc32(buffer.data() + start, length))
          << "start " << start << " length " << length;
    }
  }
}

TEST(Crc32Test, ChainedUpdateOverEverySplitMatchesOneShot) {
  std::vector<uint8_t> buffer(100);
  Rng rng(42);
  for (uint8_t& byte : buffer) {
    byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  const uint32_t one_shot = Crc32(buffer.data(), buffer.size());
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = Crc32Update(0, buffer.data(), split);
    EXPECT_EQ(Crc32Update(head, buffer.data() + split, buffer.size() - split),
              one_shot)
        << "split " << split;
  }
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "kondo provenance block payload";
  uint32_t crc = 0;
  crc = Crc32Update(crc, data.data(), 10);
  crc = Crc32Update(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc, Crc32(data.data(), data.size()));
}

// ------------------------------------------------------------ round trip --

TEST(Kel2RoundTripTest, EmptyStore) {
  const std::string path = WriteKel2("empty.kel2", {});
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->NumBlocks(), 0);
  EXPECT_EQ(reader->NumEvents(), 0);
  StatusOr<std::vector<Event>> events = reader->ReadAll();
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
}

TEST(Kel2RoundTripTest, StencilStream) {
  const std::vector<Event> events = StencilStream(10000, 11);
  const std::string path = WriteKel2("stencil.kel2", events);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->NumEvents(), 10000);
  StatusOr<std::vector<Event>> got = reader->ReadAll();
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameEvents(*got, events);
}

TEST(Kel2RoundTripTest, UniformStream) {
  const std::vector<Event> events = UniformStream(10000, 12);
  const std::string path = WriteKel2("uniform.kel2", events);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  StatusOr<std::vector<Event>> got = reader->ReadAll();
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameEvents(*got, events);
}

TEST(Kel2RoundTripTest, ClusteredStream) {
  const std::vector<Event> events = ClusteredStream(10000, 13);
  const std::string path = WriteKel2("clustered.kel2", events);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  StatusOr<std::vector<Event>> got = reader->ReadAll();
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameEvents(*got, events);
}

TEST(Kel2RoundTripTest, ManySeedsAndBlockSizes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (int64_t block : {1, 3, 64, 1000}) {
      const std::vector<Event> events = UniformStream(257, seed);
      const std::string path = WriteKel2("many.kel2", events, block);
      StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
      ASSERT_TRUE(reader.ok()) << reader.status();
      StatusOr<std::vector<Event>> got = reader->ReadAll();
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameEvents(*got, events);
    }
  }
}

TEST(Kel2RoundTripTest, PartialBlockSealedOnClose) {
  const std::vector<Event> events = StencilStream(700, 3);
  const std::string path = WriteKel2("partial.kel2", events, 512);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->NumBlocks(), 2);  // 512 + 188.
  EXPECT_EQ(reader->NumEvents(), 700);
}

TEST(Kel2RoundTripTest, NegativeOffsetsSurvive) {
  // Hostile but encodable: zigzag must carry negative fields unchanged.
  std::vector<Event> events;
  events.push_back(MakeEvent(-5, -9, EventType::kPread, -1000, 10));
  events.push_back(MakeEvent(5, 9, EventType::kRead, 1000, 10));
  const std::string path = WriteKel2("negative.kel2", events);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  StatusOr<std::vector<Event>> got = reader->ReadAll();
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameEvents(*got, events);
}

TEST(Kel2RoundTripTest, StencilCompressesAtLeastThreeFold) {
  const std::vector<Event> events = StencilStream(20000, 4);
  const std::string kel2_path = WriteKel2("ratio.kel2", events);
  StatusOr<int64_t> kel2_bytes = FileSizeBytes(kel2_path);
  ASSERT_TRUE(kel2_bytes.ok());
  // Against the raw 40-byte record per event.
  const int64_t raw_bytes = 40 * static_cast<int64_t>(events.size());
  EXPECT_GE(static_cast<double>(raw_bytes) /
                static_cast<double>(*kel2_bytes),
            3.0);
}

// --------------------------------------------------------- crash + decay --

TEST(Kel2CrashTest, TornTrailingPayloadDropped) {
  const std::vector<Event> events = StencilStream(1024, 9);
  const std::string path = WriteKel2("torn.kel2", events, 256);
  StatusOr<int64_t> full = FileSizeBytes(path);
  ASSERT_TRUE(full.ok());
  // Chop into the last block's payload: the reader must drop exactly that
  // block and keep the first three.
  ASSERT_EQ(::truncate(path.c_str(), *full - 10), 0);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->NumBlocks(), 3);
  StatusOr<std::vector<Event>> got = reader->ReadAll();
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameEvents(*got,
                   std::vector<Event>(events.begin(), events.begin() + 768));
}

TEST(Kel2CrashTest, TornTrailingDescriptorDropped) {
  const std::vector<Event> events = StencilStream(512, 10);
  const std::string path = WriteKel2("torn_desc.kel2", events, 256);
  // Append half a descriptor of garbage, as a crash between the descriptor
  // write and the payload write would leave.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char garbage[30] = {};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->NumBlocks(), 2);
  EXPECT_EQ(reader->NumEvents(), 512);
}

TEST(Kel2CrashTest, CorruptedBlockDetectedByChecksum) {
  const std::vector<Event> events = UniformStream(1024, 21);
  const std::string path = WriteKel2("corrupt.kel2", events, 256);
  StatusOr<Kel2Reader> pristine = Kel2Reader::Open(path);
  ASSERT_TRUE(pristine.ok());
  ASSERT_EQ(pristine->NumBlocks(), 4);
  // Flip one payload byte in the middle of block 1.
  const Kel2BlockInfo& block = pristine->blocks()[1];
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, block.payload_pos + block.payload_bytes / 2,
                       SEEK_SET),
            0);
  const int original = std::fgetc(f);
  ASSERT_NE(original, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(original ^ 0x40, f);
  std::fclose(f);

  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  // Block 1 is poisoned; the others still decode.
  EXPECT_TRUE(reader->DecodeBlock(0).ok());
  StatusOr<std::vector<Event>> bad = reader->DecodeBlock(1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos);
  EXPECT_TRUE(reader->DecodeBlock(2).ok());
  // And a full scan reports the corruption instead of mis-decoding.
  EXPECT_EQ(reader->ReadAll().status().code(), StatusCode::kDataLoss);
}

TEST(Kel2CrashTest, NotAKel2StoreRejected) {
  const std::string path = TempPath("junk.kel2");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("JUNKJUNK", 1, 8, f);
  std::fclose(f);
  EXPECT_EQ(Kel2Reader::Open(path).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(Kel2Reader::Open(TempPath("absent.kel2")).status().code(),
            StatusCode::kNotFound);
}

// A 74-byte store whose one block claims 2^32-1 events in a 2-byte payload
// (with a valid CRC): the count must be rejected before anything is sized
// by it.
TEST(Kel2CrashTest, EventCountBeyondPayloadIsDataLoss) {
  const std::string path = TempPath("overclaim.kel2");
  const char payload[2] = {0, 0};
  char descriptor[kKel2DescriptorBytes] = {};
  const uint32_t payload_bytes = sizeof(payload);
  const uint32_t crc = Crc32(payload, sizeof(payload));
  const uint32_t event_count = std::numeric_limits<uint32_t>::max();
  std::memcpy(descriptor, &payload_bytes, 4);
  std::memcpy(descriptor + 4, &crc, 4);
  std::memcpy(descriptor + 8, &event_count, 4);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(kKel2Magic, 1, 4, f);
  std::fwrite("\0\0\0\0", 1, 4, f);
  std::fwrite(descriptor, 1, sizeof(descriptor), f);
  std::fwrite(payload, 1, sizeof(payload), f);
  std::fclose(f);

  const StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reader.status().message().find("4294967295 events"),
            std::string::npos)
      << reader.status();
  EXPECT_EQ(ReadLineageStore(path).status().code(), StatusCode::kDataLoss);
  // The payload decoder applies the same bound to its own arguments.
  EXPECT_EQ(DecodeKel2Payload(payload, sizeof(payload), event_count)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST(Kel2CrashTest, AppendAfterCloseFails) {
  const std::string path = TempPath("closed.kel2");
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  const Status status =
      writer->Append(MakeEvent(1, 1, EventType::kRead, 0, 1));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find(path), std::string::npos);
}

// ----------------------------------------------------------------- query --

TEST(ProvenanceQueryTest, IntervalQueryMatchesBruteForce) {
  const std::vector<Event> events = ClusteredStream(5000, 31);
  const std::string path = WriteKel2("query.kel2", events, 128);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  ProvenanceQuery query(&*reader);

  Rng rng(32);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t begin = rng.UniformInt(0, 1 << 22);
    const int64_t end = begin + rng.UniformInt(1, 1 << 16);
    StatusOr<std::vector<Event>> got =
        query.EventsOverlapping(1, begin, end);
    ASSERT_TRUE(got.ok()) << got.status();
    std::vector<Event> want;
    for (const Event& event : events) {
      if (event.IsDataAccess() && event.id.file_id == 1 &&
          event.offset < end && begin < event.offset + event.size) {
        want.push_back(event);
      }
    }
    ExpectSameEvents(*got, want);
  }
}

TEST(ProvenanceQueryTest, BlockSkippingDecodesFewerBlocksThanFullScan) {
  // Two far-apart clusters: a query inside one cannot touch the other's
  // blocks.
  std::vector<Event> events;
  for (int64_t i = 0; i < 2048; ++i) {
    events.push_back(MakeEvent(1, 1, EventType::kPread, i * 16, 16));
  }
  for (int64_t i = 0; i < 2048; ++i) {
    events.push_back(
        MakeEvent(2, 1, EventType::kPread, (1 << 30) + i * 16, 16));
  }
  const std::string path = WriteKel2("skip.kel2", events, 256);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->NumBlocks(), 16);

  ProvenanceQuery query(&*reader);
  StatusOr<std::vector<Event>> got =
      query.EventsOverlapping(1, 0, 1024);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 64u);
  EXPECT_EQ(query.stats().blocks_considered, 16);
  EXPECT_EQ(query.stats().blocks_decoded, 1);
  EXPECT_EQ(query.stats().blocks_skipped, 15);
}

TEST(ProvenanceQueryTest, DecodeMemoServesRepeatedQueries) {
  const std::vector<Event> events = StencilStream(2000, 5);
  const std::string path = WriteKel2("memo.kel2", events, 128);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  ProvenanceQuery query(&*reader);
  ASSERT_TRUE(query.EventsOverlapping(1, 0, 1 << 20).ok());
  const int64_t decoded_once = query.stats().blocks_decoded;
  ASSERT_TRUE(query.EventsOverlapping(1, 0, 1 << 20).ok());
  EXPECT_EQ(query.stats().blocks_decoded, decoded_once);
  EXPECT_GT(query.stats().block_cache_hits, 0);
}

TEST(ProvenanceQueryTest, RunsTouchingAndPerRunCoverage) {
  std::vector<Event> events;
  events.push_back(MakeEvent(1, 1, EventType::kRead, 0, 110));
  events.push_back(MakeEvent(2, 1, EventType::kRead, 70, 30));
  events.push_back(MakeEvent(1, 1, EventType::kRead, 130, 20));
  events.push_back(MakeEvent(1, 1, EventType::kRead, 90, 30));
  events.push_back(MakeEvent(3, 2, EventType::kRead, 0, 50));
  const std::string path = WriteKel2("runs.kel2", events, 2);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  ProvenanceQuery query(&*reader);

  StatusOr<std::vector<int64_t>> runs = query.RunsTouching(1, 60, 80);
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(*runs, (std::vector<int64_t>{1, 2}));

  runs = query.RunsTouching(1, 125, 128);
  ASSERT_TRUE(runs.ok());
  EXPECT_TRUE(runs->empty());

  // The paper's worked example: merged access ranges [0,120) and [130,150).
  StatusOr<IntervalSet> ranges = query.AccessedRanges(1);
  ASSERT_TRUE(ranges.ok());
  EXPECT_EQ(ranges->ToString(), "[0,120) [130,150)");

  StatusOr<std::map<int64_t, int64_t>> coverage = query.PerRunCoverage(1);
  ASSERT_TRUE(coverage.ok());
  ASSERT_EQ(coverage->size(), 2u);
  EXPECT_EQ((*coverage)[1], 140);  // [0,120) merged + [130,150).
  EXPECT_EQ((*coverage)[2], 30);

  StatusOr<IntervalSet> run1 = query.AccessedRangesForRun(1, 1);
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ(run1->ToString(), "[0,120) [130,150)");
}

TEST(ProvenanceQueryTest, CoverageHistogram) {
  std::vector<Event> events;
  events.push_back(MakeEvent(1, 1, EventType::kPread, 0, 100));
  events.push_back(MakeEvent(1, 1, EventType::kPread, 250, 100));
  const std::string path = WriteKel2("hist.kel2", events);
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  ProvenanceQuery query(&*reader);
  StatusOr<std::vector<int64_t>> histogram = query.CoverageHistogram(1, 100);
  ASSERT_TRUE(histogram.ok()) << histogram.status();
  EXPECT_EQ(*histogram, (std::vector<int64_t>{100, 0, 50, 50}));
  EXPECT_FALSE(query.CoverageHistogram(1, 0).ok());
}

TEST(ProvenanceQueryTest, AccessedIndicesFeedTheCarver) {
  // End-to-end: audit a stencil-ish read pattern, persist to KEL2, query
  // the store, and map the ranges back to element indices.
  const std::string data_path = TempPath("prov_data.kdf");
  DataArray array(Shape({32}), DType::kFloat64);
  array.FillPattern(1);
  ASSERT_TRUE(WriteKdfFile(data_path, array).ok());

  const std::string store_path = TempPath("prov_audit.kel2");
  StatusOr<AuditReport> report = RunAudited(
      data_path, /*pid=*/7,
      [](TracedFile& file) -> Status {
        for (int64_t i = 4; i < 12; ++i) {
          KONDO_RETURN_IF_ERROR(file.ReadElement(Index({i})).status());
        }
        return OkStatus();
      },
      MakeKel2Persister(store_path));
  ASSERT_TRUE(report.ok()) << report.status();

  StatusOr<Kel2Reader> reader = Kel2Reader::Open(store_path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->NumEvents(), report->num_events);
  ProvenanceQuery query(&*reader);

  StatusOr<KdfReader> kdf = KdfReader::Open(data_path);
  ASSERT_TRUE(kdf.ok());
  OffsetMapper mapper(&kdf->layout(), kdf->payload_offset());
  StatusOr<IndexSet> indices = query.AccessedIndices(1, mapper);
  ASSERT_TRUE(indices.ok());
  EXPECT_EQ(indices->size(), report->accessed_indices.size());
  for (int64_t i = 4; i < 12; ++i) {
    EXPECT_TRUE(indices->Contains(Index({i})));
  }
  EXPECT_FALSE(indices->Contains(Index({3})));
}

// ----------------------------------------------------------------- store --

/// Flips one byte in the middle of block `index`'s payload.
void FlipPayloadByte(const std::string& path, size_t index) {
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_LT(index, reader->blocks().size());
  const Kel2BlockInfo& block = reader->blocks()[index];
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, block.payload_pos + block.payload_bytes / 2,
                       SEEK_SET),
            0);
  const int original = std::fgetc(f);
  ASSERT_NE(original, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(original ^ 0x40, f);
  std::fclose(f);
}

/// A store that takes every path of the offset index: three file ids,
/// events that are not data accesses, size-0 and negative-size reads
/// (which no descriptor covers), one long mmap, many duplicate offsets,
/// one block whose payload CRC fails, and a torn tail. Accesses sweep
/// upward through the file, 32 slots at a time, so each block covers a
/// narrow range and most queries miss the damaged one.
std::string WriteAwkwardStore(const std::string& name) {
  Rng rng(77);
  std::vector<Event> events;
  // Over 64 * 64 data accesses per file, so the max-end hierarchy has
  // two levels.
  for (int64_t i = 0; i < 16000; ++i) {
    const int64_t pid = rng.UniformInt(1, 6);
    const int64_t file_id = rng.UniformInt(1, 3);
    const int64_t pick = rng.UniformInt(0, 99);
    const int64_t offset = (i / 400) * 2048 + rng.UniformInt(0, 31) * 64;
    if (pick < 4) {
      events.push_back(MakeEvent(pid, file_id, EventType::kOpen, 0, 0));
    } else if (pick < 6) {
      events.push_back(MakeEvent(pid, file_id, EventType::kWrite, offset, 8));
    } else if (pick < 8) {
      events.push_back(MakeEvent(pid, file_id, EventType::kClose, 0, 0));
    } else if (pick < 13) {
      events.push_back(MakeEvent(pid, file_id, EventType::kRead, offset, 0));
    } else if (pick < 15) {
      events.push_back(MakeEvent(pid, file_id, EventType::kPread, offset, -7));
    } else {
      events.push_back(MakeEvent(pid, file_id, EventType::kPread, offset,
                                 rng.UniformInt(1, 200)));
    }
  }
  events[3000] = MakeEvent(9, 2, EventType::kMmap, 0, 1 << 20);
  // Block 100 holds only size-0 reads, so its descriptor has no byte
  // range and no query may return them; block 101's size-0 and
  // negative-size reads sit far outside its sized reads' range.
  for (int64_t k = 0; k < 64; ++k) {
    events[6400 + k] =
        MakeEvent(k % 5 + 1, k % 3 + 1, EventType::kRead, 32768 + k * 64, 0);
    events[6464 + k] =
        k < 32 ? MakeEvent(2, 1, EventType::kPread, k * 64, 64)
               : MakeEvent(3, 1, EventType::kRead, 60000 + k * 64,
                           k % 2 == 0 ? 0 : -3);
  }
  const std::string path = WriteKel2(name, events, 64);
  FlipPayloadByte(path, 40);
  StatusOr<int64_t> size = [&]() -> StatusOr<int64_t> {
    StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
    if (!reader.ok()) {
      return reader.status();
    }
    return static_cast<int64_t>(kKel2HeaderBytes) + reader->BlockBytes();
  }();
  EXPECT_TRUE(size.ok()) << size.status();
  if (size.ok()) {
    EXPECT_EQ(::truncate(path.c_str(), *size - 10), 0);
  }
  return path;
}

TEST(ProvenanceStoreTest, IndexMatchesScan) {
  const std::string path = WriteAwkwardStore("index_vs_scan.kel2");
  StatusOr<std::unique_ptr<ProvenanceStore>> store =
      ProvenanceStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ((*store)->NumBlocks(), reader->NumBlocks());
  ASSERT_EQ((*store)->NumBlocks(), 16000 / 64 - 1);  // Torn last block.
  EXPECT_GT((*store)->IndexBytes(), 0);
  EXPECT_LE((*store)->IndexBytes(), 40 * (*store)->NumEvents());
  ProvenanceQuery scan(&*reader);

  Rng rng(78);
  int errors = 0;
  int hits = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const int64_t file_id = rng.UniformInt(0, 4);
    const int64_t begin = rng.UniformInt(-100, 84000);
    const int64_t end = trial % 10 == 0 ? begin - rng.UniformInt(0, 64)
                        : trial % 10 == 1
                            ? begin + rng.UniformInt(1, 1 << 21)
                            : begin + rng.UniformInt(1, 300);
    const ProvenanceQueryStats before = scan.stats();
    const StatusOr<std::vector<Event>> want =
        scan.EventsOverlapping(file_id, begin, end);
    ProvenanceQueryStats stats;
    const StatusOr<std::vector<Event>> got =
        (*store)->EventsOverlapping(file_id, begin, end, &stats);
    SCOPED_TRACE(::testing::Message() << "file " << file_id << " ["
                                      << begin << "," << end << ")");
    ASSERT_EQ(got.status().code(), want.status().code());
    ASSERT_EQ(got.status().message(), want.status().message());
    if (!want.ok()) {
      ++errors;
      continue;
    }
    ExpectSameEvents(*got, *want);
    hits += want->empty() ? 0 : 1;
    EXPECT_EQ(stats.blocks_considered,
              scan.stats().blocks_considered - before.blocks_considered);
    EXPECT_EQ(stats.blocks_skipped,
              scan.stats().blocks_skipped - before.blocks_skipped);
    EXPECT_EQ(stats.blocks_decoded, 0);
  }
  // Both outcomes, and non-empty results, were exercised.
  EXPECT_GT(errors, 0);
  EXPECT_GT(hits, 500);
}

TEST(ProvenanceStoreTest, EmptyStoreAnswersEveryQueryEmpty) {
  const std::string path = WriteKel2("index_empty.kel2", {});
  StatusOr<std::unique_ptr<ProvenanceStore>> store =
      ProvenanceStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->IndexBytes(), 0);
  StatusOr<std::vector<Event>> got = (*store)->EventsOverlapping(1, 0, 100);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->empty());
}

// ---------------------------------------------------------------- persist --

TEST(PersistTest, RejectsNonPositiveBlockSize) {
  Kel2WriterOptions options;
  options.events_per_block = 0;
  EXPECT_EQ(Kel2Writer::Create(TempPath("badopts.kel2"), options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kondo
