// Integration tests for the `kondo` command-line tool: each test shells out
// to the built binary (path injected by CMake via KONDO_CLI_BINARY).

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <string>

#include "audit/event.h"
#include "provenance/crc32.h"
#include "provenance/kel2_format.h"
#include "provenance/kel2_writer.h"

namespace kondo {
namespace {

#ifndef KONDO_CLI_BINARY
#error "KONDO_CLI_BINARY must be defined by the build"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunCli(const std::string& args) {
  const std::string command =
      std::string(KONDO_CLI_BINARY) + " " + args + " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  CommandResult result;
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 512> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAllBytes(const std::string& path) {
  std::string bytes;
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return bytes;
  }
  std::array<char, 4096> buffer;
  size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), in)) > 0) {
    bytes.append(buffer.data(), n);
  }
  std::fclose(in);
  return bytes;
}

TEST(CliTest, NoArgsPrintsUsage) {
  const CommandResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandPrintsUsage) {
  EXPECT_EQ(RunCli("frobnicate").exit_code, 2);
}

TEST(CliTest, ProgramsListsRegistry) {
  const CommandResult result = RunCli("programs");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("CS"), std::string::npos);
  EXPECT_NE(result.output.find("MSI"), std::string::npos);
  EXPECT_NE(result.output.find("128x128"), std::string::npos);
}

TEST(CliTest, MakeDataInspectRoundTrip) {
  const std::string kdf = TempPath("cli_ldc.kdf");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  const CommandResult inspect = RunCli("inspect " + kdf);
  EXPECT_EQ(inspect.exit_code, 0);
  EXPECT_NE(inspect.output.find("128x128"), std::string::npos);
  EXPECT_NE(inspect.output.find("row-major"), std::string::npos);
}

TEST(CliTest, MakeDataChunked) {
  const std::string kdf = TempPath("cli_chunked.kdf");
  ASSERT_EQ(RunCli("make-data LDC " + kdf + " --chunked").exit_code, 0);
  const CommandResult inspect = RunCli("inspect " + kdf);
  EXPECT_NE(inspect.output.find("chunked"), std::string::npos);
}

TEST(CliTest, DebloatAndReplayFlow) {
  const std::string kdf = TempPath("cli_flow.kdf");
  const std::string kdp = TempPath("cli_flow.kdp");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  const CommandResult debloat = RunCli("debloat LDC --data " + kdf +
                                       " --out " + kdp + " --seed 3");
  EXPECT_EQ(debloat.exit_code, 0) << debloat.output;
  EXPECT_NE(debloat.output.find("smaller"), std::string::npos);

  const CommandResult stats = RunCli("pack-stats " + kdp);
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("retained"), std::string::npos);

  const CommandResult replay = RunCli("replay LDC " + kdp + " 3 4");
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("0 misses"), std::string::npos);
}

TEST(CliTest, ReplayWithRemoteFallback) {
  const std::string kdf = TempPath("cli_remote.kdf");
  const std::string kdp = TempPath("cli_remote.kdp");
  ASSERT_EQ(RunCli("make-data CS " + kdf).exit_code, 0);
  // A deliberately weak campaign leaves holes for the remote to fill.
  ASSERT_EQ(RunCli("debloat CS --data " + kdf + " --out " + kdp +
                   " --max-iter 100")
                .exit_code,
            0);
  const CommandResult replay =
      RunCli("replay CS " + kdp + " 1 2 --remote " + kdf);
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("remote fetches"), std::string::npos);
}

TEST(CliTest, EvaluatePrintsReport) {
  const CommandResult result = RunCli("evaluate LDC --seed 2");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("precision"), std::string::npos);
  EXPECT_NE(result.output.find("bloat identified"), std::string::npos);
}

TEST(CliTest, EvaluateMapRendersGrid) {
  const CommandResult result = RunCli("evaluate LDC --seed 2 --map");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("legend"), std::string::npos);
  EXPECT_NE(result.output.find('#'), std::string::npos);
}

TEST(CliTest, SpecParsesKondofile) {
  const std::string spec_path = TempPath("cli_spec.kondofile");
  std::FILE* f = std::fopen(spec_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("FROM ubuntu:20.04\nADD ./d.kdf /d.kdf\nPARAM [0-9]\n"
             "ENTRYPOINT [\"/x\"]\n",
             f);
  std::fclose(f);
  const CommandResult result = RunCli("spec " + spec_path);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("ubuntu:20.04"), std::string::npos);
  EXPECT_NE(result.output.find("[0-9]"), std::string::npos);
}

TEST(CliTest, FuzzCarveStagedPipeline) {
  const std::string state = TempPath("cli_campaign.kcs");
  const CommandResult fuzz =
      RunCli("fuzz CS --out " + state + " --seed 4 --max-iter 400");
  EXPECT_EQ(fuzz.exit_code, 0) << fuzz.output;
  EXPECT_NE(fuzz.output.find("discovered offsets"), std::string::npos);

  // Resume with a second seed: the state must grow (or stay equal).
  const CommandResult resumed = RunCli("fuzz CS --out " + state +
                                       " --resume " + state +
                                       " --seed 5 --max-iter 400");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;

  const CommandResult carve = RunCli("carve CS --state " + state);
  EXPECT_EQ(carve.exit_code, 0) << carve.output;
  EXPECT_NE(carve.output.find("precision"), std::string::npos);
}

TEST(CliTest, CarveShapeMismatchFails) {
  const std::string state = TempPath("cli_mismatch.kcs");
  ASSERT_EQ(RunCli("fuzz CS --out " + state + " --max-iter 100").exit_code,
            0);
  const CommandResult carve = RunCli("carve LDC3D --state " + state);
  EXPECT_EQ(carve.exit_code, 1);
  EXPECT_NE(carve.output.find("does not match"), std::string::npos);
}

TEST(CliTest, UnknownProgramFails) {
  EXPECT_EQ(RunCli("evaluate NOPE").exit_code, 1);
}

TEST(CliTest, ReplayWrongArityFails) {
  const std::string kdf = TempPath("cli_arity.kdf");
  const std::string kdp = TempPath("cli_arity.kdp");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  ASSERT_EQ(
      RunCli("debloat LDC --data " + kdf + " --out " + kdp).exit_code, 0);
  const CommandResult result = RunCli("replay LDC " + kdp + " 1 2 3");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("expected 2 parameters"), std::string::npos);
}

// ------------------------------------------------------------ provenance --

/// Writes a three-event KEL2 store, two events per block, so a narrow
/// query can skip a block.
void WriteKel2Fixture(const std::string& path) {
  const struct {
    int64_t pid, offset, size;
  } reads[] = {
      {1, 0, 100},    // pread [0,100)
      {2, 250, 100},  // pread [250,350)
      {1, 40, 20},    // pread [40,60)
  };
  Kel2WriterOptions options;
  options.events_per_block = 2;
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const auto& r : reads) {
    Event event;
    event.id = EventId{r.pid, 1};
    event.type = EventType::kPread;
    event.offset = r.offset;
    event.size = r.size;
    ASSERT_TRUE(writer->Append(event).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

TEST(CliTest, GlobalUsageListsProvenance) {
  const CommandResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("provenance query"), std::string::npos);
  EXPECT_NE(result.output.find("provenance stats"), std::string::npos);
  // The package is the only on-disk D_Θ and KEL2 the only lineage store:
  // no verbs convert to or from another form.
  for (const char* retired :
       {"kondo pack ", "kondo unpack", "kondo repack", " compact "}) {
    EXPECT_EQ(result.output.find(retired), std::string::npos) << retired;
  }
}

TEST(CliTest, ArgumentErrorPrintsPerCommandUsage) {
  // A recognised command with bad arguments prints only its own synopsis,
  // not the global usage wall.
  const CommandResult result = RunCli("debloat");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("kondo debloat"), std::string::npos);
  EXPECT_EQ(result.output.find("kondo fuzz"), std::string::npos);
  EXPECT_EQ(result.output.find("kondo provenance"), std::string::npos);

  const CommandResult prov = RunCli("provenance");
  EXPECT_EQ(prov.exit_code, 2);
  EXPECT_NE(prov.output.find("provenance query"), std::string::npos);
  EXPECT_EQ(prov.output.find("kondo debloat"), std::string::npos);
}

TEST(CliTest, ProvenanceQueryStatsFlow) {
  const std::string kel2 = TempPath("cli_prov.kel2");
  WriteKel2Fixture(kel2);

  // The answer reports block decode/skip counts.
  const CommandResult q2 = RunCli("provenance query " + kel2 +
                                  " --range 30:50");
  EXPECT_EQ(q2.exit_code, 0) << q2.output;
  EXPECT_NE(q2.output.find("2 events"), std::string::npos);
  EXPECT_NE(q2.output.find("blocks"), std::string::npos);

  const CommandResult runs = RunCli("provenance query " + kel2 +
                                    " --range 240:260 --runs");
  EXPECT_EQ(runs.exit_code, 0) << runs.output;
  EXPECT_NE(runs.output.find("2\n"), std::string::npos);
  EXPECT_NE(runs.output.find("1 runs"), std::string::npos);

  const CommandResult stats = RunCli("provenance stats " + kel2);
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("KEL2 store: 3 events"), std::string::npos);
  EXPECT_NE(stats.output.find("vs 40 raw"), std::string::npos);
  EXPECT_NE(stats.output.find("run 1: 100 distinct bytes"),
            std::string::npos);
}

TEST(CliTest, ProvenanceRejectsNonKel2Store) {
  const std::string junk = TempPath("cli_prov_junk.kel2");
  std::FILE* f = std::fopen(junk.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("JUNKJUNK not a lineage store\n", f);
  std::fclose(f);
  for (const std::string& verb :
       {"query " + junk + " --range 0:100", "stats " + junk}) {
    const CommandResult result = RunCli("provenance " + verb);
    EXPECT_EQ(result.exit_code, 1) << verb;
    EXPECT_NE(result.output.find("not a KEL2 event store: " + junk),
              std::string::npos)
        << result.output;
  }
}

TEST(CliTest, ProvenanceRejectsEventCountBeyondPayload) {
  // One block claiming 2^32-1 events in a 2-byte payload: DATA_LOSS and
  // exit 1, not an allocation failure.
  const std::string path = TempPath("cli_prov_overclaim.kel2");
  const char payload[2] = {0, 0};
  char descriptor[kKel2DescriptorBytes] = {};
  const uint32_t payload_bytes = sizeof(payload);
  const uint32_t crc = Crc32(payload, sizeof(payload));
  const uint32_t event_count = 0xffffffffu;
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
  for (const std::string& verb :
       {"query " + path + " --range 0:100", "stats " + path}) {
    const CommandResult result = RunCli("provenance " + verb);
    EXPECT_EQ(result.exit_code, 1) << verb << "\n" << result.output;
    EXPECT_NE(result.output.find("DATA_LOSS"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("4294967295 events"), std::string::npos)
        << result.output;
  }
}

TEST(CliTest, ProvenanceStatsListsOnlyFileIdsPresent) {
  // Two events in one block with file ids 1 and 4,000,000: stats reports
  // exactly those two files, not every id in between.
  const std::string path = TempPath("cli_prov_sparse_ids.kel2");
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const int64_t file_id : {int64_t{1}, int64_t{4000000}}) {
    Event event;
    event.id = EventId{7, file_id};
    event.type = EventType::kPread;
    event.offset = 0;
    event.size = 16;
    ASSERT_TRUE(writer->Append(event).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  const CommandResult stats = RunCli("provenance stats " + path);
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("file 1 run 7: 16 distinct bytes"),
            std::string::npos)
      << stats.output;
  EXPECT_NE(stats.output.find("file 4000000 run 7: 16 distinct bytes"),
            std::string::npos)
      << stats.output;
  size_t files = 0;
  for (size_t pos = stats.output.find("\nfile "); pos != std::string::npos;
       pos = stats.output.find("\nfile ", pos + 1)) {
    ++files;
  }
  EXPECT_EQ(files, 2u) << stats.output;
}

TEST(CliTest, GlobalUsageListsServeClientBlast) {
  const CommandResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("serve"), std::string::npos);
  EXPECT_NE(result.output.find("blast"), std::string::npos);
  EXPECT_NE(result.output.find("client fetch"), std::string::npos);
}

TEST(CliTest, ServeRejectsGarbageIntFlags) {
  // Strict positive-integer parsing: garbage, negatives, zero, and
  // trailing junk all exit 2 with the command's own usage, before any
  // socket is bound.
  for (const std::string args :
       {"serve --port banana", "serve --port -1", "serve --port 0x50",
        "serve --socket /tmp/kondo_cli_none.sock --cache-mb many",
        "serve --socket /tmp/kondo_cli_none.sock --max-inflight 0"}) {
    const CommandResult result = RunCli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("kondo serve"), std::string::npos) << args;
    EXPECT_EQ(result.output.find("kondo blast"), std::string::npos) << args;
  }
  // Out-of-range ports are positive integers but still not listenable.
  const CommandResult high = RunCli("serve --port 65536");
  EXPECT_EQ(high.exit_code, 2) << high.output;
}

TEST(CliTest, BlastRejectsGarbageIntFlags) {
  for (const std::string args :
       {"blast --socket /tmp/kondo_cli_none.sock --artifact a.kdp"
        " --clients 1.5",
        "blast --socket /tmp/kondo_cli_none.sock --artifact a.kdp"
        " --requests zero",
        "blast --socket /tmp/kondo_cli_none.sock --artifact a.kdp"
        " --clients -4"}) {
    const CommandResult result = RunCli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("invalid"), std::string::npos) << args;
    EXPECT_NE(result.output.find("kondo blast"), std::string::npos) << args;
  }
}

TEST(CliTest, ServeRequiresExactlyOneListenAddress) {
  EXPECT_EQ(RunCli("serve").exit_code, 2);
  EXPECT_EQ(
      RunCli("serve --socket /tmp/kondo_cli_none.sock --port 7777").exit_code,
      2);
}

TEST(CliTest, DebloatPackageIsByteIdenticalAcrossJobs) {
  // Debloat writes exactly one KDP package, byte-identical at every
  // --jobs setting.
  const std::string kdf = TempPath("cli_pack.kdf");
  const std::string serial = TempPath("cli_pack_j1.kdp");
  const std::string parallel = TempPath("cli_pack_j4.kdp");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  const CommandResult debloat =
      RunCli("debloat LDC --data " + kdf + " --out " + serial + " --jobs 1");
  ASSERT_EQ(debloat.exit_code, 0) << debloat.output;
  EXPECT_NE(debloat.output.find("packed"), std::string::npos)
      << debloat.output;
  ASSERT_EQ(RunCli("debloat LDC --data " + kdf + " --out " + parallel +
                   " --jobs 4")
                .exit_code,
            0);
  EXPECT_FALSE(ReadAllBytes(serial).empty());
  EXPECT_EQ(ReadAllBytes(serial), ReadAllBytes(parallel));

  for (const std::string& kdp : {serial, parallel}) {
    const CommandResult stats = RunCli("pack-stats " + kdp);
    ASSERT_EQ(stats.exit_code, 0) << stats.output;
    EXPECT_NE(stats.output.find("chunks"), std::string::npos) << stats.output;
    EXPECT_NE(stats.output.find("fingerprint"), std::string::npos)
        << stats.output;
  }
}

TEST(CliTest, RejectsGarbageIntFlags) {
  // One malformed positive-integer flag per verb that parses one (serve
  // and blast have their own tests): exit 2 before any work starts.
  for (const std::string args :
       {"debloat LDC --data in.kdf --out out.kdp --jobs 1.5",
        "replay LDC in.kdp 1 2 --fetch-retries zero",
        "evaluate LDC --max-evals -2", "fuzz CS --out s.kcs --max-iter many",
        "worker --socket /tmp/kondo_cli_none.sock --jobs 0",
        "client submit CS --socket /tmp/kondo_cli_none.sock --max-evals x"}) {
    const CommandResult result = RunCli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("invalid"), std::string::npos) << args;
  }
}

TEST(CliTest, ReplaySurfacesCorruptionNamingTheChunk) {
  const std::string kdf = TempPath("cli_corrupt.kdf");
  const std::string kdp = TempPath("cli_corrupt.kdp");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  ASSERT_EQ(RunCli("debloat LDC --data " + kdf + " --out " + kdp).exit_code,
            0);

  // Flip one payload byte (past the rank-2 header) and replay: decoding the
  // package must fail naming the damaged chunk.
  std::string bytes = ReadAllBytes(kdp);
  ASSERT_GT(bytes.size(), 60u);
  bytes[45] = static_cast<char>(bytes[45] ^ 0x5a);
  {
    std::FILE* out = std::fopen(kdp.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), out);
    std::fclose(out);
  }
  const CommandResult replay = RunCli("replay LDC " + kdp + " 3 4");
  EXPECT_EQ(replay.exit_code, 1) << replay.output;
  EXPECT_NE(replay.output.find("KDP chunk"), std::string::npos)
      << replay.output;
}

TEST(CliTest, ProvenanceQueryRejectsBadRange) {
  const std::string kel2 = TempPath("cli_prov_bad.kel2");
  WriteKel2Fixture(kel2);
  const CommandResult result =
      RunCli("provenance query " + kel2 + " --range 50:30");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("invalid --range"), std::string::npos);
}

}  // namespace
}  // namespace kondo
