#include "fabric/transport.hpp"

#include <deque>
#include <utility>

#include "common/check.hpp"

#ifdef __unix__
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace fmm::fabric {

namespace {

// A private QueryService that answers on the caller's thread: send_line
// queues the request, recv_line answers the oldest queued one.  "Death"
// (kill == shutdown) fails every later send and recv — exactly how a
// dead process looks from the router's side of the pipe.
class InProcessChannel : public Channel {
 public:
  explicit InProcessChannel(const service::ServiceConfig& config)
      : service_(config) {}

  bool send_line(const std::string& line) override {
    if (dead_) {
      return false;
    }
    requests_.push_back(line);
    return true;
  }

  // With no request queued a pipe would block forever; report the
  // channel broken instead.
  bool recv_line(std::string* line) override {
    if (dead_ || requests_.empty()) {
      return false;
    }
    *line = service_.handle_line(requests_.front());
    requests_.pop_front();
    return true;
  }

  void shutdown() override { dead_ = true; }

 private:
  service::QueryService service_;
  std::deque<std::string> requests_;
  bool dead_ = false;
};

}  // namespace

InProcessTransport::InProcessTransport(service::ServiceConfig worker_config)
    : config_(std::move(worker_config)) {}

std::unique_ptr<Channel> InProcessTransport::connect(
    std::size_t /*worker_id*/) {
  return std::make_unique<InProcessChannel>(config_);
}

#ifdef __unix__

namespace {

class ProcessChannel : public Channel {
 public:
  ProcessChannel(pid_t pid, int write_fd, int read_fd)
      : pid_(pid), write_fd_(write_fd), read_fd_(read_fd) {}

  ~ProcessChannel() override {
    shutdown();
    if (pid_ > 0) {
      // Give the worker a moment to drain after stdin EOF, then force.
      int status = 0;
      for (int spin = 0; spin < 200; ++spin) {
        const pid_t got = ::waitpid(pid_, &status, WNOHANG);
        if (got == pid_ || got < 0) {
          pid_ = -1;
          break;
        }
        ::usleep(10'000);
      }
      if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
      }
    }
  }

  bool send_line(const std::string& line) override {
    if (write_fd_ < 0) {
      return false;
    }
    std::string framed = line;
    framed.push_back('\n');
    const char* data = framed.data();
    std::size_t left = framed.size();
    while (left > 0) {
      const ssize_t wrote = ::write(write_fd_, data, left);
      if (wrote <= 0) {
        return false;  // EPIPE: worker died (SIGPIPE is ignored)
      }
      data += wrote;
      left -= static_cast<std::size_t>(wrote);
    }
    return true;
  }

  bool recv_line(std::string* line) override {
    if (read_fd_ < 0) {
      return false;
    }
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t got = ::read(read_fd_, chunk, sizeof(chunk));
      if (got <= 0) {
        return false;  // EOF or error: worker is gone
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  void shutdown() override {
    if (write_fd_ >= 0) {
      ::close(write_fd_);
      write_fd_ = -1;
    }
  }

  void kill() override {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
    }
    shutdown();
    if (read_fd_ >= 0) {
      ::close(read_fd_);
      read_fd_ = -1;
    }
  }

 private:
  pid_t pid_;
  int write_fd_;
  int read_fd_;
  std::string buffer_;
};

}  // namespace

ProcessTransport::ProcessTransport(std::vector<std::string> argv)
    : argv_(std::move(argv)) {
  FMM_CHECK_MSG(!argv_.empty(), "process transport needs a worker argv");
  // A worker dying mid-write must surface as EPIPE on the router's
  // write(), not kill the router process.
  ::signal(SIGPIPE, SIG_IGN);
}

std::unique_ptr<Channel> ProcessTransport::connect(
    std::size_t /*worker_id*/) {
  int to_worker[2];
  int from_worker[2];
  FMM_CHECK_MSG(::pipe(to_worker) == 0, "pipe(to_worker) failed");
  FMM_CHECK_MSG(::pipe(from_worker) == 0, "pipe(from_worker) failed");

  const pid_t pid = ::fork();
  FMM_CHECK_MSG(pid >= 0, "fork failed for worker spawn");
  if (pid == 0) {
    // Child: stdin <- router, stdout -> router, then exec the worker.
    ::dup2(to_worker[0], STDIN_FILENO);
    ::dup2(from_worker[1], STDOUT_FILENO);
    ::close(to_worker[0]);
    ::close(to_worker[1]);
    ::close(from_worker[0]);
    ::close(from_worker[1]);
    std::vector<char*> argv;
    argv.reserve(argv_.size() + 1);
    for (auto& arg : argv_) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the probe ping will catch this
  }
  ::close(to_worker[0]);
  ::close(from_worker[1]);
  return std::make_unique<ProcessChannel>(pid, to_worker[1], from_worker[0]);
}

#endif  // __unix__

}  // namespace fmm::fabric
