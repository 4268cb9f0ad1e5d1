// Pluggable worker transports for the service fabric.
//
// A Channel is one synchronous NDJSON conversation with a worker: the
// router sends one request line, then blocks for exactly one response
// line.  A Transport manufactures channels — `connect(k)` spawns (or
// re-spawns) worker slot k and returns its channel.  Two transports
// ship:
//
//   InProcessTransport — each connect() makes a fresh
//     service::QueryService that answers each request on the caller's
//     thread.  Fully deterministic, no OS processes and no threads: this
//     is what the chaos tests and the byte-identity gate run on.
//
//   ProcessTransport (Unix) — each connect() fork/execs a real worker
//     process (`fmmio worker`) wired up through stdin/stdout pipes.
//     kill() delivers SIGKILL, so supervision is exercised against
//     genuine process death.
//
// Channels are NOT thread-safe.  The router needs no lock for them:
// slot k's channel is touched only by slot k's dispatcher thread, and
// serve() connects every channel before the dispatchers start and
// closes them after the dispatchers join.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "service/service.hpp"

namespace fmm::fabric {

/// One synchronous request/response conversation with a worker.
class Channel {
 public:
  virtual ~Channel() = default;
  /// Sends one request line; false when the channel is broken.
  virtual bool send_line(const std::string& line) = 0;
  /// Blocks for the next response line; false on EOF / broken channel.
  virtual bool recv_line(std::string* line) = 0;
  /// Graceful close: no more requests; the worker drains and exits.
  virtual void shutdown() = 0;
  /// Hard kill where the transport supports it (SIGKILL for process
  /// workers); defaults to a graceful close.
  virtual void kill() { shutdown(); }
};

/// Factory for worker channels, one per worker slot.  connect() is
/// called again on the same slot to respawn a dead worker.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::unique_ptr<Channel> connect(std::size_t worker_id) = 0;
  virtual const char* name() const = 0;
};

/// Deterministic in-process transport: one QueryService per spawned
/// worker, answering on the thread that calls recv_line.
class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(service::ServiceConfig worker_config = {});
  std::unique_ptr<Channel> connect(std::size_t worker_id) override;
  const char* name() const override { return "inproc"; }

 private:
  service::ServiceConfig config_;
};

#ifdef __unix__
/// Real-process transport: fork/exec `argv` (an `fmmio worker` command
/// line) with stdin/stdout pipes.  The constructor ignores SIGPIPE so a
/// dead worker surfaces as a failed write, not a router death.
class ProcessTransport : public Transport {
 public:
  explicit ProcessTransport(std::vector<std::string> argv);
  std::unique_ptr<Channel> connect(std::size_t worker_id) override;
  const char* name() const override { return "process"; }

 private:
  std::vector<std::string> argv_;
};
#endif  // __unix__

}  // namespace fmm::fabric
