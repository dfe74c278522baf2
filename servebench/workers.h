// Copyright 2026 The WWT Authors
//
// wwt_shardd worker processes for the routed workload: spawned with the
// benchmark as their parent (they die with it), wired over unix sockets,
// and always stopped and reaped by the owning object.

#ifndef SERVEBENCH_WORKERS_H_
#define SERVEBENCH_WORKERS_H_

#include <sys/types.h>

#include <memory>
#include <string>

#include "util/statusor.h"

namespace servebench {

class WorkerProcess {
 public:
  /// Starts `binary --snapshot SNAPSHOT --listen LISTEN --quiet` and
  /// waits (up to 60 s) for its "listening on ADDR" line. Call from the
  /// main thread: the worker is killed when the spawning thread exits.
  static wwt::StatusOr<std::unique_ptr<WorkerProcess>> Spawn(
      const std::string& binary, const std::string& snapshot,
      const std::string& listen);

  /// Stops the worker (SIGTERM, then SIGKILL after 10 s) and reaps it.
  ~WorkerProcess();

  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  const std::string& address() const { return address_; }

  /// Peak resident set (VmHWM) of the live worker in MiB; 0 if unreadable.
  double PeakRssMb() const;
  /// Restarts the worker's peak count from its current resident set.
  bool ResetPeakRss() const;

 private:
  explicit WorkerProcess(pid_t pid) : pid_(pid) {}

  pid_t pid_;
  std::string address_;
};

/// Peak resident set (VmHWM) of process `pid` in MiB, from /proc; 0 when
/// unreadable.
double PeakRssMbOf(pid_t pid);

/// Restarts the VmHWM count of process `pid` from its current resident
/// set (writes 5 to /proc/PID/clear_refs); false when that is refused.
bool ResetPeakRssOf(pid_t pid);

}  // namespace servebench

#endif  // SERVEBENCH_WORKERS_H_
