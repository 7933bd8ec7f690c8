#ifndef KONDO_COMMON_NET_FAULT_H_
#define KONDO_COMMON_NET_FAULT_H_

#include <cstdint>
#include <memory>

#include "common/socket.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"

namespace kondo {

/// Deterministic fault schedule for a FaultInjectingNetEnv — the wire
/// counterpart of FaultPlan (common/env.h). The trigger is a protocol
/// position, not a socket identity: operation indices count the *writes*
/// a connection performs, in per-connection order, and the one drop goes
/// to whichever connection reaches the scheduled write first. So a
/// schedule fires whenever any link gets that far, however sessions
/// interleave and whichever link the scheduler happens to use.
struct NetFaultPlan {
  /// Reserved for probabilistic schedules; deterministic drop/short-frame
  /// points below do not consume it.
  uint64_t seed = 1;

  /// Drop the first connection of the faulted env (Connect()ed or
  /// Accept()ed) to attempt a write after completing `drop_after_writes`
  /// writes: that write and every later write and read on it fail with an
  /// "injected connection drop" kDataLoss, and the write side is shut down
  /// so the peer observes EOF. At most one connection is dropped.
  /// -1 = never.
  int64_t drop_after_writes = -1;

  /// On the dropped write, transmit only the first `short_frame_bytes`
  /// bytes before shutting down — a torn frame on the peer's wire instead
  /// of a clean EOF. 0 = drop cleanly.
  int64_t short_frame_bytes = 0;
};

/// A NetEnv decorator that deterministically injects connection drops and
/// short (torn) frames per a NetFaultPlan, mirroring FaultInjectingEnv's
/// role for artifact IO. Both Connect()ed and Accept()ed connections are
/// wrapped, so either end of a protocol can be faulted.
class FaultInjectingNetEnv : public NetEnv {
 public:
  FaultInjectingNetEnv(NetEnv* base, const NetFaultPlan& plan);

  StatusOr<std::unique_ptr<ListenSocket>> Listen(
      const SocketAddress& address) override;
  StatusOr<std::unique_ptr<Connection>> Connect(
      const SocketAddress& address) override;

  /// Injected drops delivered so far.
  int64_t faults_injected() const KONDO_EXCLUDES(mu_);

 private:
  friend class FaultInjectingConnection;
  friend class FaultInjectingListenSocket;

  std::unique_ptr<Connection> Wrap(std::unique_ptr<Connection> conn);
  /// Claims the plan's single drop for a connection about to make its
  /// write number `writes` (0-based); true exactly once, for the first
  /// connection to reach the scheduled write.
  bool ClaimDrop(int64_t writes) KONDO_EXCLUDES(mu_);

  NetEnv* const base_;
  const NetFaultPlan plan_;
  mutable Mutex mu_;
  int64_t faults_ KONDO_GUARDED_BY(mu_) = 0;
};

/// True when `status` carries a net-injected fault rather than a real
/// socket failure.
bool IsInjectedNetFault(const Status& status);

}  // namespace kondo

#endif  // KONDO_COMMON_NET_FAULT_H_
