/**
 * @file
 * A thread-safe bounded FIFO queue — the serving layer's backpressure
 * point. Producers either block until space frees (open-loop load
 * generators that model backpressure as delay) or fail fast
 * (tryPush, surfaced to clients as Outcome::RejectedQueueFull).
 * A producer blocked on a full queue resumes once consumers have
 * drained it to half its capacity, not after every pop: a producer
 * that outpaces its consumer then wakes once per half queue instead
 * of trading the CPU with the consumer on every element.
 *
 * This is the *host-side* queue in front of the chip pool; it is
 * deliberately generic (template) so the unit tests can exercise the
 * concurrency contract with trivial payloads.
 */

#ifndef TSP_SERVE_REQUEST_QUEUE_HH
#define TSP_SERVE_REQUEST_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace tsp::serve {

/** Why a non-blocking pop returned without an element. */
enum class PopResult : std::uint8_t
{
    Item,   ///< An element was dequeued.
    Empty,  ///< Momentarily empty; more may arrive.
    Closed, ///< Closed *and* drained: no element will ever arrive.
};

/** Bounded multi-producer multi-consumer FIFO. */
template <typename T>
class BoundedQueue
{
  public:
    /** @param capacity maximum queued elements; must be > 0. */
    explicit BoundedQueue(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    /** @return maximum queued elements. */
    std::size_t capacity() const { return capacity_; }

    /** @return current element count (racy between calls). */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return items_.size();
    }

    /** @return true when size() == capacity() (racy between calls). */
    bool
    full() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return items_.size() >= capacity_;
    }

    /**
     * Enqueues without blocking. On failure @p item is left intact
     * (not moved from), so the caller can still resolve it.
     * @return false when the queue is full or closed.
     */
    bool
    tryPush(T &&item)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (closed_ || items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(item));
        }
        notEmpty_.notify_one();
        return true;
    }

    bool
    tryPush(const T &item)
    {
        return tryPush(T(item));
    }

    /**
     * Enqueues, blocking while the queue is full; a blocked pusher
     * resumes when the queue has drained to half its capacity.
     * close() wakes blocked pushers, which then fail. On failure
     * @p item is left intact (not moved from), so the caller can
     * still resolve it.
     * @return false when the queue is (or becomes) closed.
     */
    bool
    push(T &&item)
    {
        {
            std::unique_lock<std::mutex> lock(mu_);
            notFull_.wait(lock, [&] {
                return closed_ || items_.size() < capacity_;
            });
            if (closed_)
                return false;
            items_.push_back(std::move(item));
        }
        notEmpty_.notify_one();
        return true;
    }

    bool
    push(const T &item)
    {
        return push(T(item));
    }

    /**
     * Dequeues the oldest element, blocking while empty.
     * @return false when the queue is closed *and* drained — the
     * consumer-side shutdown signal.
     */
    bool
    pop(T &out)
    {
        bool wake = false;
        {
            std::unique_lock<std::mutex> lock(mu_);
            notEmpty_.wait(lock,
                           [&] { return closed_ || !items_.empty(); });
            if (items_.empty())
                return false; // Closed and drained.
            out = std::move(items_.front());
            items_.pop_front();
            wake = drainedToLowWater();
        }
        if (wake)
            notFull_.notify_all();
        return true;
    }

    /**
     * Dequeues without blocking. Unlike a bare bool, the tri-state
     * result lets a non-blocking consumer tell a momentary lull
     * (Empty: spin/poll again) from shutdown (Closed: the queue is
     * closed and drained; no element will ever arrive).
     */
    PopResult
    tryPop(T &out)
    {
        bool wake = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (items_.empty())
                return closed_ ? PopResult::Closed
                               : PopResult::Empty;
            out = std::move(items_.front());
            items_.pop_front();
            wake = drainedToLowWater();
        }
        if (wake)
            notFull_.notify_all();
        return PopResult::Item;
    }

    /**
     * Closes the queue: pushes fail from now on; pops drain what is
     * left and then return false. Idempotent.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    /** @return true once close() has been called. */
    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return closed_;
    }

  private:
    /**
     * @return true when the pop just made brings the queue down to
     * half its capacity, the point at which blocked pushers resume.
     * Pushers block only on a full queue, so while consumers keep
     * popping the queue passes this point (unless tryPush() keeps
     * topping it up); close() wakes every pusher regardless.
     */
    bool
    drainedToLowWater() const
    {
        return items_.size() == capacity_ / 2;
    }

    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace tsp::serve

#endif // TSP_SERVE_REQUEST_QUEUE_HH
