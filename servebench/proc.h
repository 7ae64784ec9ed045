// Process plumbing for the serving-path benchmark: shard-server child
// processes, /proc readers for CPU time, peak memory and loopback traffic,
// and a per-phase watchdog that fails a hung run with the phase named.

#ifndef SERVEBENCH_PROC_H_
#define SERVEBENCH_PROC_H_

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every live child pid, so the watchdog can kill them from its own thread
/// without taking a lock the hung thread may hold.
class ChildRegistry {
 public:
  static ChildRegistry& Get() {
    static ChildRegistry registry;
    return registry;
  }
  void Add(pid_t pid) {
    for (auto& slot : pids_) {
      pid_t empty = 0;
      if (slot.compare_exchange_strong(empty, pid)) return;
    }
  }
  void Remove(pid_t pid) {
    for (auto& slot : pids_) {
      pid_t expected = pid;
      if (slot.compare_exchange_strong(expected, 0)) return;
    }
  }
  void KillAll() {
    for (auto& slot : pids_) {
      const pid_t pid = slot.load();
      if (pid > 0) kill(pid, SIGKILL);
    }
  }

 private:
  std::array<std::atomic<pid_t>, 16> pids_{};
};

/// One ppanns_shard_server child. The child gets SIGKILL when this thread's
/// process dies (PR_SET_PDEATHSIG), so no server outlives a crashed run.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Starts `binary --db db --port 0 --shards shards` and waits for its
  /// "listening on port N" line. Returns false (with `error`) on failure.
  bool Start(const std::string& binary, const std::string& db,
             const std::string& shards, std::string* error) {
    int fds[2];
    if (pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    std::vector<std::string> args = {binary, "--db", db, "--port", "0",
                                     "--shards", shards};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      *error = "fork failed";
      return false;
    }
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      // The server's banner on stderr is noise next to the result line.
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) dup2(devnull, STDERR_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(fds[1]);
    pid_ = pid;
    out_fd_ = fds[0];
    ChildRegistry::Get().Add(pid);

    std::string line;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (line.find('\n') == std::string::npos) {
      const int left_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now()).count());
      if (left_ms <= 0) {
        *error = "server did not report its port within 60 s";
        return false;
      }
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, left_ms) <= 0) continue;
      char buf[256];
      const ssize_t got = read(out_fd_, buf, sizeof(buf));
      if (got <= 0) {
        *error = "server exited before listening (" + binary + ")";
        return false;
      }
      line.append(buf, static_cast<std::size_t>(got));
    }
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "listening on port %u", &port) != 1 ||
        port == 0) {
      *error = "unexpected server output: " + line;
      return false;
    }
    port_ = static_cast<int>(port);
    return true;
  }

  /// SIGTERM, then SIGKILL after 5 s; always reaps the child.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ChildRegistry::Get().Remove(pid_);
    pid_ = -1;
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  std::string endpoint() const { return "127.0.0.1:" + std::to_string(port_); }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// Reads the "key: value" line of a /proc file ("self" or a pid).
inline double ProcField(const std::string& pid, const char* file,
                        const char* key) {
  std::ifstream in("/proc/" + pid + "/" + file);
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr);
    }
  }
  return 0.0;
}

/// Peak resident set (VmHWM) in MB.
inline double PeakRssMb(const std::string& pid) {
  return ProcField(pid, "status", "VmHWM") / 1024.0;
}

/// Bytes sent over the loopback interface so far (/proc/net/dev). Socket
/// send() bypasses the per-process wchar counter, so the wire volume is read
/// at the interface: both directions plus TCP/IP headers.
inline double LoopbackTxBytes() {
  std::ifstream in("/proc/net/dev");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    name.erase(0, name.find_first_not_of(' '));
    if (name != "lo") continue;
    std::istringstream fields(line.substr(colon + 1));
    double value = 0.0;
    for (int i = 0; i < 9 && fields >> value; ++i) {
    }
    return value;  // the 9th field: transmitted bytes
  }
  return 0.0;
}

/// User + system CPU seconds of a child, from /proc/<pid>/stat.
inline double ChildCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// User + system CPU seconds of this process.
inline double SelfCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// Per-phase deadline. Enter() names the phase and arms its deadline; if it
/// passes, the watchdog prints the phase, kills every child and exits with
/// code 3 without printing a result.
class Watchdog {
 public:
  Watchdog() : thread_([this] { Loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Enter(const std::string& phase, double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = phase;
    budget_s_ = seconds;
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(100));
      if (!stop_ && !phase_.empty() && Clock::now() > deadline_) {
        std::fprintf(stderr,
                     "servebench: phase '%s' exceeded its %.0f s deadline\n",
                     phase_.c_str(), budget_s_);
        std::fflush(stderr);
        ChildRegistry::Get().KillAll();
        _exit(3);
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::string phase_;
  double budget_s_ = 0.0;
  Clock::time_point deadline_{};
  std::thread thread_;  // last: Loop reads the members above
};

}  // namespace servebench

#endif  // SERVEBENCH_PROC_H_
