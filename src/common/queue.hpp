// Bounded blocking MPMC queue — the admission queue of serve::Service (every
// shard pulls its batches from it with pop_batch) and the per-connection
// reply queues of the socket server and the balancer. Closing the queue is
// the shutdown signal: producers are refused, consumers drain what is left
// and then see end-of-stream. The queue imposes FIFO order under one mutex,
// which is what the service's arrival sequence numbers are assigned against.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace repro::common {

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` == 0 is promoted to 1 (a zero-capacity queue could never
  /// transfer anything).
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Block until there is room, then enqueue. Returns false when the queue
  /// is or becomes closed while waiting — in that case `item` is NOT moved
  /// from, so the caller keeps it (the serving layer fails the request's
  /// promise instead of losing it).
  bool push(T&& item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Block until an item is available and dequeue it. Returns nullopt only
  /// when the queue is closed *and* drained — items enqueued before close()
  /// are always delivered.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Block until an item is available, then move it and whatever else is
  /// queued behind it — at most `max` items in all, oldest first — onto the
  /// end of `out`, under one lock (a `max` of 0 is promoted to 1). Returns
  /// how many were moved: 0 only when the queue is closed *and* drained.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    if (max == 0) max = 1;
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    std::size_t taken = 0;
    for (; taken < max && !items_.empty(); ++taken) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    lock.unlock();
    if (taken == 1) {
      not_full_.notify_one();
    } else if (taken > 1) {
      not_full_.notify_all();
    }
    return taken;
  }

  /// Refuse new items and wake every waiter. Idempotent; already-queued
  /// items remain poppable.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace repro::common
