/**
 * @file
 * The simulation context: virtual clock, run loop, and fiber scheduling.
 *
 * One Context underlies one simulated machine. Code running inside fibers
 * advances time by sleeping on the context; the run loop interleaves all
 * fibers in deterministic (time, sequence) order. A sleep whose wake
 * would fire before every pending event has nothing to interleave
 * with, so it moves the clock in place instead (skipTo). A fiber that
 * blocks fires the next event itself while that event is a wake of
 * another started fiber, switching straight to it (block).
 */

#ifndef MACH_SIM_CONTEXT_HH
#define MACH_SIM_CONTEXT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"

namespace mach::sim
{

/** Identifies a spawned fiber; stays valid after the fiber is reaped. */
using FiberId = std::uint64_t;

/** Virtual clock plus fiber scheduler for one simulated machine. */
class Context
{
  public:
    Context() = default;

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Current simulated time in whole microseconds (for reporting). */
    Tick nowUsec() const { return now_ / kUsec; }

    /**
     * Create a fiber and schedule it to start at time now() + @p delay.
     * The Context owns the fiber's storage until the fiber finishes.
     */
    FiberId spawn(std::string name, Fiber::Entry entry, Tick delay = 0);

    /** The id of the fiber currently executing; panics in scheduler. */
    FiberId currentFiber() const;

    /**
     * Block the current fiber until some event wakes it. Must be called
     * from within a fiber.
     *
     * The handoff: while the next event run() would fire is a wake of
     * this context's fibers -- within run()'s horizon, no stop
     * requested -- the blocking fiber fires it itself. It pops the
     * event, moves the clock and counts the event in run()'s total,
     * then switches straight to the woken fiber (Fiber::switchTo), or
     * returns at once if the wake is its own. A stale wake of a
     * finished fiber is consumed and the next event examined. A
     * callback, a fiber's first wake (its first entry needs the
     * scheduler's stack), an empty queue, the horizon or a stop hand
     * control back to the scheduler. The same events fire in the same
     * order either way.
     */
    void block();

    /**
     * Schedule fiber @p id to resume at absolute time @p when. Waking a
     * fiber that has since finished is a harmless no-op, so races between
     * wakeups and completion need no special handling at call sites.
     */
    EventId scheduleWake(FiberId id, Tick when);

    /** Schedule a plain callback (runs in scheduler context; no block). */
    EventId scheduleCall(Tick when, std::function<void()> cb);

    /** Cancel a pending wake or call. No-op if already fired. */
    void cancel(EventId id);

    /**
     * From within a fiber: advance simulated time by @p dt without any
     * possibility of early wakeup. Tries skipTo() first, so a sleep
     * that nothing could interleave with costs no event and no switch.
     */
    void sleep(Tick dt);

    /**
     * From within a fiber: the in-place wake. If the current fiber's
     * wake at @p when would be the very next event run() fires -- the
     * queue's claimNext() holds, within run()'s horizon and with no
     * stop requested -- reserve its sequence number, move the clock
     * to the (perturbed) wake time and return true without inserting
     * an event or leaving the fiber. Otherwise return false and change
     * nothing; the caller schedules the wake and blocks as usual.
     */
    bool skipTo(Tick when);

    /**
     * Drain events until the queue is empty or simulated time would pass
     * @p until. Returns the number of events dispatched, counting each
     * in-place wake (skipTo) and each handoff (block) as the event it
     * stands for, so the count is the same as if every wake had been
     * queued and fired by the scheduler.
     */
    std::uint64_t run(Tick until = ~Tick{0});

    /** Make run() return after the current event completes. */
    void requestStop() { stop_requested_ = true; }

    /** Wakes taken in place by skipTo() over this context's life. */
    std::uint64_t inPlaceWakes() const { return in_place_wakes_; }

    /** Events block() fired itself over this context's life. */
    std::uint64_t handoffs() const { return handoffs_; }

    /** Number of live (spawned, unfinished) fibers. */
    std::size_t liveFiberCount() const { return live_fibers_; }

    /** Expose the queue for white-box tests and micro benchmarks. */
    EventQueue &queue() { return queue_; }

    /** Name of a live fiber (diagnostics); "<gone>" after it finishes. */
    std::string fiberName(FiberId id) const;

  private:
    /** The live fiber @p id, or null once it has finished. */
    Fiber *
    fiber(FiberId id) const
    {
        return id - 1 < fibers_.size() ? fibers_[id - 1].get() : nullptr;
    }
    void resumeFiber(FiberId id);
    /** EventQueue raw-event thunk for fiber wakes (token = FiberId). */
    static void wakeTrampoline(void *ctx, std::uint64_t token);

    EventQueue queue_;
    Tick now_ = 0;
    /** The horizon of the run() in progress. */
    Tick until_ = 0;
    std::uint64_t in_place_wakes_ = 0;
    std::uint64_t handoffs_ = 0;
    bool stop_requested_ = false;
    bool running_ = false;
    FiberId current_id_ = 0;
    /** Indexed by FiberId - 1; a finished fiber's slot is null. */
    std::vector<std::unique_ptr<Fiber>> fibers_;
    std::size_t live_fibers_ = 0;
};

} // namespace mach::sim

#endif // MACH_SIM_CONTEXT_HH
