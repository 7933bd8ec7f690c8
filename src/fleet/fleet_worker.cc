#include "fleet/fleet_worker.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "core/kondo.h"
#include "exec/campaign_executor.h"
#include "provenance/crc32.h"
#include "serve/kpc.h"
#include "shard/shard_campaign.h"
#include "shard/shard_manifest.h"
#include "shard/shard_scheduler.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

/// Sleeps in 1ms slices until `total_micros` elapse or `cancel` returns
/// true — a blocking wait (not a busy one), polled so Stop() is never held
/// hostage by a long stall.
template <typename CancelFn>
void InterruptibleSleep(int64_t total_micros, const CancelFn& cancel) {
  constexpr int64_t kSliceMicros = 1000;
  for (int64_t waited = 0; waited < total_micros && !cancel();
       waited += kSliceMicros) {
    std::this_thread::sleep_for(std::chrono::microseconds(kSliceMicros));
  }
}

}  // namespace

std::unique_ptr<MultiFileProgram> CreateFleetProgram(const std::string& name,
                                                     int64_t extent) {
  std::unique_ptr<MultiFileProgram> multi =
      CreateMultiFileProgram(name, extent);
  if (multi != nullptr) {
    return multi;
  }
  std::unique_ptr<Program> single = CreateProgram(name, extent);
  if (single == nullptr) {
    return nullptr;
  }
  return std::make_unique<SingleFileProgramAdapter>(std::move(single));
}

FleetWorker::FleetWorker(FleetWorkerOptions options)
    : options_(std::move(options)) {}

FleetWorker::~FleetWorker() { Stop(); }

Status FleetWorker::Start() {
  {
    MutexLock lock(mu_);
    if (started_) {
      return FailedPreconditionError("fleet worker already started");
    }
    started_ = true;
  }
  KONDO_RETURN_IF_ERROR(EnsureCampaignDirectory(options_.scratch_dir));
  NetEnv* net = options_.net != nullptr ? options_.net : NetEnv::Default();
  KONDO_ASSIGN_OR_RETURN(listener_, net->Listen(options_.address));
  bound_address_ = listener_->address();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return OkStatus();
}

void FleetWorker::Stop() {
  {
    MutexLock lock(mu_);
    if (!started_ || stopping_) {
      return;
    }
    stopping_ = true;
  }
  if (listener_ != nullptr) {
    listener_->Shutdown();
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  std::list<std::unique_ptr<Session>> sessions;
  {
    MutexLock lock(mu_);
    sessions.swap(sessions_);
  }
  for (const std::unique_ptr<Session>& session : sessions) {
    session->conn->ShutdownRead();
  }
  for (const std::unique_ptr<Session>& session : sessions) {
    if (session->thread.joinable()) {
      session->thread.join();
    }
  }
}

int64_t FleetWorker::shards_served() const {
  MutexLock lock(mu_);
  return shards_served_;
}

bool FleetWorker::Stopping() const {
  MutexLock lock(mu_);
  return stopping_;
}

void FleetWorker::AcceptLoop() {
  while (true) {
    StatusOr<std::unique_ptr<Connection>> conn = listener_->Accept();
    if (!conn.ok()) {
      return;  // Listener shut down (or fatally broken): stop accepting.
    }
    auto session = std::make_unique<Session>();
    session->conn = std::move(*conn);
    Session* raw = session.get();
    // Construct the session thread while holding mu_: once the session is
    // visible in sessions_, its thread member is fully formed, so Stop()
    // (which drains the list under the same lock) can always join it.
    MutexLock lock(mu_);
    if (stopping_) {
      return;
    }
    session->id = next_session_id_++;
    session->thread = std::thread([this, raw] { SessionLoop(raw); });
    sessions_.push_back(std::move(session));
  }
}

void FleetWorker::SessionLoop(Session* session) {
  while (true) {
    StatusOr<KpcFrame> frame = ReadKpcFrame(*session->conn);
    if (!frame.ok()) {
      return;  // Orderly EOF or a torn stream: the session is over.
    }
    const Status handled = Dispatch(session, *frame);
    if (!handled.ok()) {
      KONDO_LOG(Warning) << "fleet worker session " << session->id
                         << " dropped: " << handled;
      return;
    }
  }
}

Status FleetWorker::Dispatch(Session* session, const KpcFrame& frame) {
  switch (frame.kind) {
    case KpcKind::kHello:
      return HandleHello(session, frame);
    case KpcKind::kRunShard:
      return HandleRunShard(session, frame);
    default:
      return InvalidArgumentError(
          StrCat("unexpected frame kind on worker connection: ",
                 static_cast<int>(frame.kind)));
  }
}

Status FleetWorker::HandleHello(Session* session, const KpcFrame& frame) {
  KONDO_ASSIGN_OR_RETURN(WorkerHello hello,
                         WorkerHello::Decode(frame.payload));
  FleetProgramFactory factory = options_.program_factory;
  std::unique_ptr<MultiFileProgram> program =
      factory ? factory(hello.program, hello.extent)
              : CreateFleetProgram(hello.program, hello.extent);
  if (program == nullptr) {
    const Status unknown =
        NotFoundError(StrCat("unknown fleet program: ", hello.program));
    MutexLock lock(session->send_mu);
    ++session->frames_sent;
    KONDO_RETURN_IF_ERROR(WriteKpcFrame(
        *session->conn, KpcKind::kError,
        KpcError::FromStatus(unknown).Encode()));
    return unknown;
  }

  KONDO_ASSIGN_OR_RETURN(session->plan, PlanGeometry(program->FileShapes()));
  session->fuzz = hello.fuzz;
  session->rng_seed = hello.rng_seed;
  session->program = std::move(program);

  WorkerHelloAck ack;
  ack.program = std::string(session->program->name());
  ack.file_shapes = session->plan.file_shapes;
  MutexLock lock(session->send_mu);
  ++session->frames_sent;
  return WriteKpcFrame(*session->conn, KpcKind::kHello, ack.Encode());
}

Status FleetWorker::HandleRunShard(Session* session, const KpcFrame& frame) {
  if (session->program == nullptr) {
    return FailedPreconditionError("kRunShard before kHello");
  }
  KONDO_ASSIGN_OR_RETURN(RunShardRequest request,
                         RunShardRequest::Decode(frame.payload));
  StatusOr<ShardResultMsg> result = RunAssignedShard(session, request);
  if (!result.ok()) {
    // Application failure (scratch IO, bad slices): report it and keep the
    // session — the coordinator decides whether to retire this worker.
    MutexLock lock(session->send_mu);
    ++session->frames_sent;
    return WriteKpcFrame(*session->conn, KpcKind::kError,
                         KpcError::FromStatus(result.status()).Encode());
  }
  {
    MutexLock lock(session->send_mu);
    ++session->frames_sent;
    KONDO_RETURN_IF_ERROR(WriteKpcFrame(*session->conn,
                                        KpcKind::kShardResult,
                                        result->Encode()));
  }
  MutexLock lock(mu_);
  ++shards_served_;
  return OkStatus();
}

StatusOr<ShardResultMsg> FleetWorker::RunAssignedShard(
    Session* session, const RunShardRequest& request) {
  const ShardPlan& plan = session->plan;
  for (const ShardSlice& slice : request.slices) {
    if (slice.file >= plan.num_files() ||
        slice.end >
            plan.file_shapes[static_cast<size_t>(slice.file)].NumElements()) {
      return InvalidArgumentError(
          StrCat("shard ", request.shard,
                 " slice exceeds the program's file geometry"));
    }
  }
  Shard shard;
  shard.id = request.shard;
  shard.slices = request.slices;

  char name[64];
  std::snprintf(name, sizeof(name), "w%03lld-shard-%03d.kel2",
                static_cast<long long>(session->id), request.shard);
  const std::string lineage_path = options_.scratch_dir + "/" + name;

  // Heartbeats cover exactly the campaign: started before, stopped (and
  // joined) before the result stall and the result write, so a suppressed
  // or stalled worker goes silent the way a wedged one would.
  std::atomic<bool> campaign_done{false};
  std::thread heartbeat;
  if (options_.heartbeat_micros > 0) {
    heartbeat = std::thread([this, session, &campaign_done,
                             shard_id = request.shard] {
      int64_t sequence = 0;
      while (!campaign_done.load()) {
        InterruptibleSleep(options_.heartbeat_micros,
                           [&campaign_done] { return campaign_done.load(); });
        if (campaign_done.load()) {
          return;
        }
        HeartbeatMsg beat;
        beat.shard = shard_id;
        beat.sequence = sequence++;
        MutexLock lock(session->send_mu);
        ++session->frames_sent;
        const Status sent = WriteKpcFrame(*session->conn, KpcKind::kHeartbeat,
                                          beat.Encode());
        if (!sent.ok()) {
          return;  // Peer gone; the result write will surface it.
        }
      }
    });
  }

  KondoConfig config;
  config.fuzz = session->fuzz;
  config.rng_seed = session->rng_seed;
  config.jobs = options_.jobs;
  CampaignExecutor executor(options_.jobs);
  StatusOr<ShardCampaignResult> run =
      RunSealedShardCampaign(*session->program, plan, shard, config, executor,
                             lineage_path, options_.env);
  campaign_done.store(true);
  if (heartbeat.joinable()) {
    heartbeat.join();
  }
  KONDO_RETURN_IF_ERROR(run.status());

  std::string kel2;
  KONDO_RETURN_IF_ERROR(ReadFileToString(lineage_path, &kel2));
  ShardArtifactInfo info;
  info.lineage_bytes = static_cast<int64_t>(kel2.size());
  info.lineage_crc = Crc32(kel2.data(), kel2.size());

  ShardResultMsg result;
  result.shard = request.shard;
  result.kss = EncodeShardState(request.shard, *run, info);
  result.kel2 = std::move(kel2);

  if (options_.result_stall_micros > 0) {
    InterruptibleSleep(options_.result_stall_micros,
                       [this] { return Stopping(); });
  }
  return result;
}

}  // namespace kondo
