#include "Daemon.h"

#include "Bench.h"

#include "daemon/Server.h"
#include "daemon/Transport.h"
#include "lang/Parser.h"
#include "support/Signal.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace tsbench {

using namespace tracesafe;
using Clock = std::chrono::steady_clock;

namespace {

/// Forks and execs \p Args (Args[0] is this binary). The child dies with
/// the benchmark, whatever ends it. \p StdoutFd, when >= 0, becomes the
/// child's standard output.
int spawnSelf(std::vector<std::string> Args, int StdoutFd = -1) {
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  int Pid = ::fork();
  if (Pid < 0)
    throw std::runtime_error("fork failed");
  if (Pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (StdoutFd >= 0)
      ::dup2(StdoutFd, 1);
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }
  return Pid;
}

} // namespace

DaemonProcess::DaemonProcess(const std::string &SelfExe,
                             const DaemonConfig &Config) {
  std::vector<std::string> Args = {SelfExe,
                                   "daemon",
                                   "--socket",
                                   Config.SocketPath,
                                   "--journal",
                                   Config.JournalPath,
                                   "--workers",
                                   std::to_string(Config.Workers)};
  if (!Config.CacheFile.empty()) {
    Args.push_back("--cache-file");
    Args.push_back(Config.CacheFile);
  }
  Clock::time_point Start = Clock::now();
  Pid = spawnSelf(std::move(Args));
  for (;;) {
    daemon::ConnectOutcome Outcome;
    std::string Err;
    int Fd = daemon::connectUnix(Config.SocketPath, Outcome, Err);
    if (Fd >= 0) {
      ::close(Fd);
      break;
    }
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      throw std::runtime_error("daemon exited during start-up");
    }
    if (Clock::now() - Start > std::chrono::seconds(30)) {
      stop();
      throw std::runtime_error("daemon did not start within 30 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  SetupS = std::chrono::duration<double>(Clock::now() - Start).count();
}

double DaemonProcess::peakRssMb() const {
  return Pid > 0 ? tsbench::peakRssMb(Pid) : 0;
}

void DaemonProcess::stop() {
  if (Pid <= 0)
    return;
  ::kill(Pid, SIGTERM);
  Clock::time_point Start = Clock::now();
  int Status = 0;
  while (::waitpid(Pid, &Status, WNOHANG) == 0) {
    if (Clock::now() - Start > std::chrono::seconds(10)) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Pid = -1;
}

daemon::ClientOptions clientOptions(const std::string &Socket,
                                    const std::string &Name, uint64_t Seed) {
  daemon::ClientOptions O;
  O.SocketPath = Socket;
  O.Name = Name;
  O.Seed = Seed;
  return O;
}

std::map<std::string, uint64_t> statsSnapshot(daemon::DaemonClient &Client) {
  daemon::QueryRequest Q;
  Q.Kind = daemon::QueryKind::Stats;
  daemon::QueryResponse R = Client.call(Q);
  std::map<std::string, uint64_t> Out;
  std::istringstream In(R.Detail);
  std::string KV;
  while (In >> KV) {
    size_t Eq = KV.find('=');
    if (Eq != std::string::npos)
      Out[KV.substr(0, Eq)] = std::strtoull(KV.c_str() + Eq + 1, nullptr, 10);
  }
  return Out;
}

double timeEngineStart(const std::string &SelfExe, const std::string &Kind,
                       const std::vector<std::string> &Files) {
  std::vector<std::string> Args = {SelfExe, "load", Kind};
  Args.insert(Args.end(), Files.begin(), Files.end());
  int Fds[2];
  if (::pipe2(Fds, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe failed");
  Clock::time_point Start = Clock::now();
  int Pid;
  try {
    Pid = spawnSelf(std::move(Args), Fds[1]);
  } catch (...) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    throw;
  }
  ::close(Fds[1]);
  char Ready = 0;
  ssize_t N;
  while ((N = ::read(Fds[0], &Ready, 1)) < 0 && errno == EINTR) {
  }
  double Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
  ::close(Fds[0]);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  if (N != 1 || Ready != 'R' || !WIFEXITED(Status) || WEXITSTATUS(Status))
    throw std::runtime_error("engine start-up failed");
  return Seconds;
}

int loadMain(int Argc, char **Argv) {
  if (Argc < 3)
    return 2;
  const bool Programs = std::string(Argv[2]) == "programs";
  for (int I = 3; I < Argc; ++I) {
    std::ifstream In(Argv[I], std::ios::binary);
    std::ostringstream Bytes;
    Bytes << In.rdbuf();
    if (!In || (Programs && !parseProgram(Bytes.str())))
      return 2;
  }
  return ::write(1, "R", 1) == 1 ? 0 : 2;
}

int daemonMain(int Argc, char **Argv) {
  daemon::ServerOptions Opts;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Arg = Argv[I], Val = Argv[I + 1];
    if (Arg == "--socket")
      Opts.SocketPath = Val;
    else if (Arg == "--journal")
      Opts.JournalPath = Val;
    else if (Arg == "--cache-file")
      Opts.CacheFile = Val;
    else if (Arg == "--workers")
      Opts.Workers = static_cast<unsigned>(std::stoul(Val));
    else
      return 2;
  }
  static CancelToken Stop;
  installCancelOnSignal(Stop);
  Opts.Stop = &Stop;
  return daemon::runServer(Opts);
}

} // namespace tsbench
