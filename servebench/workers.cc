#include "workers.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

namespace servebench {

namespace {

/// Waits up to `seconds` for `pid` to exit; true once reaped.
bool ReapWithin(pid_t pid, double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (true) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

double PeakRssMbOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

bool ResetPeakRssOf(pid_t pid) {
  std::ofstream out("/proc/" + std::to_string(pid) + "/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

wwt::StatusOr<std::unique_ptr<WorkerProcess>> WorkerProcess::Spawn(
    const std::string& binary, const std::string& snapshot,
    const std::string& listen) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return wwt::Status::IOError("pipe: ", std::string(std::strerror(errno)));
  }
  // argv is built before fork: the child may only make async-signal-safe
  // calls until exec.
  std::vector<std::string> args = {binary,   "--snapshot", snapshot,
                                   "--listen", listen,       "--quiet"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return wwt::Status::IOError("fork: ", std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    // The worker must never outlive the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::unique_ptr<WorkerProcess> worker(new WorkerProcess(pid));

  // Read the announcement line: "listening on ADDR\n".
  std::string out;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (out.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd p{fds[0], POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  const std::string prefix = "listening on ";
  const size_t eol = out.find('\n');
  if (eol == std::string::npos || out.rfind(prefix, 0) != 0) {
    return wwt::Status::IOError("worker ", binary, " for ", snapshot,
                                " did not announce its address");
  }
  worker->address_ = out.substr(prefix.size(), eol - prefix.size());
  return worker;
}

WorkerProcess::~WorkerProcess() {
  ::kill(pid_, SIGTERM);
  if (!ReapWithin(pid_, 10.0)) {
    ::kill(pid_, SIGKILL);
    ReapWithin(pid_, 10.0);
  }
}

double WorkerProcess::PeakRssMb() const { return PeakRssMbOf(pid_); }

bool WorkerProcess::ResetPeakRss() const { return ResetPeakRssOf(pid_); }

}  // namespace servebench
