// Ordered emission for NDJSON sessions — the reply half shared by
// QueryService::serve and fabric::Router::serve.
//
// Both loops number request lines in admission order and then answer
// them out of order (pool threads, fabric workers, requeues).  An
// OrderedEmitter re-sequences the answers: a dedicated thread passes
// item k to the write callback only after items 0..k-1, so concurrent
// compute never reorders the reply stream.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

namespace fmm::service {

template <typename Item>
class OrderedEmitter {
 public:
  /// Starts the emitter thread.  `write` runs on it once per item, in
  /// sequence order, without the emitter's lock held.
  explicit OrderedEmitter(std::function<void(Item&)> write)
      : write_(std::move(write)), thread_([this] { run(); }) {}

  OrderedEmitter(const OrderedEmitter&) = delete;
  OrderedEmitter& operator=(const OrderedEmitter&) = delete;

  /// Stops at the first unanswered sequence number if finish() was never
  /// called (a serve loop unwinding by exception).
  ~OrderedEmitter() {
    if (thread_.joinable()) {
      finish(0);
    }
  }

  /// Hands over the answer to request `seq`.  Thread-safe.
  void push(std::size_t seq, Item item) {
    {
      const std::scoped_lock lock(mutex_);
      ready_.emplace(seq, std::move(item));
    }
    cv_.notify_one();
  }

  /// Blocks until items 0..total-1 have all been written, then joins the
  /// emitter thread.  Call once, after the last admission.
  void finish(std::size_t total) {
    {
      const std::scoped_lock lock(mutex_);
      done_ = true;
      total_ = total;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] {
        return ready_.count(next_) > 0 || (done_ && next_ >= total_);
      });
      const auto it = ready_.find(next_);
      if (it == ready_.end()) {
        return;  // finished and everything emitted
      }
      Item item = std::move(it->second);
      ready_.erase(it);
      ++next_;
      lock.unlock();
      write_(item);
      lock.lock();
    }
  }

  std::function<void(Item&)> write_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::size_t, Item> ready_;
  std::size_t next_ = 0;
  std::size_t total_ = 0;
  bool done_ = false;
  std::thread thread_;  // last: starts once every other member exists
};

}  // namespace fmm::service
