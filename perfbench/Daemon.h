//===----------------------------------------------------------------------===//
///
/// \file
/// The programs under test as child processes: this binary re-executed
/// with "daemon ..." runs tracesafe::daemon::runServer exactly as
/// tracesafed does; re-executed with "load ..." it starts like an
/// in-process tool (read and decode the inputs) and reports ready. The
/// parent measures set-up time (spawn to ready), reads the daemon's peak
/// RSS and stops every child on every exit path.
///
//===----------------------------------------------------------------------===//

#ifndef TSBENCH_DAEMON_H
#define TSBENCH_DAEMON_H

#include "daemon/Client.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tsbench {

struct DaemonConfig {
  std::string SocketPath;
  std::string JournalPath;
  std::string CacheFile; ///< empty = no TSCS file
  unsigned Workers = 1;
};

class DaemonProcess {
public:
  /// Spawns the daemon and waits until it accepts connections; throws
  /// std::runtime_error if it does not within 30 s.
  DaemonProcess(const std::string &SelfExe, const DaemonConfig &Config);
  ~DaemonProcess() { stop(); }

  DaemonProcess(const DaemonProcess &) = delete;
  DaemonProcess &operator=(const DaemonProcess &) = delete;

  /// Seconds from spawn to the first accepted connection (includes the
  /// TSCS preload and journal open).
  double setupSeconds() const { return SetupS; }
  double peakRssMb() const;
  /// SIGTERM, then SIGKILL after 10 s; waits for the child either way.
  void stop();

private:
  int Pid = -1;
  double SetupS = 0;
};

/// Client options shared by every benchmark connection.
tracesafe::daemon::ClientOptions clientOptions(const std::string &Socket,
                                               const std::string &Name,
                                               uint64_t Seed);

/// Runs the daemon: the entry point of this binary re-executed with
/// "daemon --socket S --journal J --workers N [--cache-file F]"; every
/// other setting is the daemon's default.
int daemonMain(int Argc, char **Argv);

/// Set-up of an in-process engine: spawns "load KIND FILE..." and returns
/// the seconds from spawn until the child has read every file (and, for
/// KIND "programs", parsed it). Throws std::runtime_error if it fails.
double timeEngineStart(const std::string &SelfExe, const std::string &Kind,
                       const std::vector<std::string> &Files);

/// Entry point of "load KIND FILE...": writes one byte to standard output
/// once the inputs are loaded.
int loadMain(int Argc, char **Argv);

/// A Stats (kind 7) snapshot, parsed into key -> value.
std::map<std::string, uint64_t>
statsSnapshot(tracesafe::daemon::DaemonClient &Client);

} // namespace tsbench

#endif // TSBENCH_DAEMON_H
