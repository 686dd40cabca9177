/**
 * @file
 * A thread-safe bounded FIFO queue — the serving layer's backpressure
 * point. Producers either block until space frees (open-loop load
 * generators that model backpressure as delay) or fail fast (they
 * check full() first; the server surfaces that to clients as
 * Outcome::RejectedQueueFull).
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
#include <deque>
#include <mutex>
#include <utility>

namespace tsp::serve {

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

    /** @return true when capacity() elements are queued (racy
     *  between calls). */
    bool
    full() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return items_.size() >= capacity_;
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

  private:
    /**
     * @return true when the pop just made brings the queue down to
     * half its capacity, the point at which blocked pushers resume.
     * Pushers block only on a full queue, so while consumers keep
     * popping the queue passes this point; close() wakes every
     * pusher regardless.
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
