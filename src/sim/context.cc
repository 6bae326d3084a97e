#include "sim/context.hh"

#include <utility>

#include "base/logging.hh"

namespace mach::sim
{

FiberId
Context::spawn(std::string name, Fiber::Entry entry, Tick delay)
{
    fibers_.push_back(
        std::make_unique<Fiber>(std::move(name), std::move(entry)));
    ++live_fibers_;
    const FiberId id = fibers_.size();
    scheduleWake(id, now_ + delay);
    return id;
}

std::string
Context::fiberName(FiberId id) const
{
    const Fiber *f = fiber(id);
    return f == nullptr ? "<gone>" : f->name();
}

FiberId
Context::currentFiber() const
{
    MACH_ASSERT(current_id_ != 0);
    return current_id_;
}

void
Context::block()
{
    Fiber *self = Fiber::current();
    MACH_ASSERT(self != nullptr);
    // Fire the events run() would fire next, as long as each is a wake
    // (only scheduleWake queues wakeTrampoline, always on this queue).
    while (running_ && !stop_requested_ && !queue_.empty()) {
        const EventQueue::Front next = queue_.peekFront();
        if (next.fn != &Context::wakeTrampoline || next.when > until_)
            break;
        Fiber *woken = fiber(next.token);
        if (woken != nullptr && !woken->started())
            break; // First entry needs the scheduler's stack.
        queue_.dropFront();
        now_ = next.when;
        ++handoffs_;
        if (woken == self)
            return;
        if (woken == nullptr)
            continue; // Fiber finished before a stale wake fired.
        current_id_ = next.token;
        woken->switchTo();
        return;
    }
    Fiber::yieldToScheduler();
}

EventId
Context::scheduleWake(FiberId id, Tick when)
{
    MACH_ASSERT(id != 0);
    MACH_ASSERT(when >= now_);
    // Wakes are the hot event kind (every sleep, nap, and IPI): use
    // the queue's raw path so no closure is constructed or dispatched.
    return queue_.scheduleRaw(when, &Context::wakeTrampoline, this, id);
}

void
Context::wakeTrampoline(void *ctx, std::uint64_t token)
{
    static_cast<Context *>(ctx)->resumeFiber(
        static_cast<FiberId>(token));
}

EventId
Context::scheduleCall(Tick when, std::function<void()> cb)
{
    MACH_ASSERT(when >= now_);
    return queue_.schedule(when, std::move(cb));
}

void
Context::cancel(EventId id)
{
    queue_.cancel(id);
}

void
Context::sleep(Tick dt)
{
    if (skipTo(now_ + dt))
        return;
    scheduleWake(currentFiber(), now_ + dt);
    block();
}

bool
Context::skipTo(Tick when)
{
    MACH_ASSERT(current_id_ != 0);
    if (!running_ || stop_requested_ || !queue_.claimNext(&when, until_))
        return false;
    now_ = when;
    ++in_place_wakes_;
    return true;
}

void
Context::resumeFiber(FiberId id)
{
    Fiber *f = fiber(id);
    if (f == nullptr)
        return; // Fiber finished before a stale wake fired.

    current_id_ = id;
    f->resume();
    // Handoffs may have passed control on: reap the fiber that
    // yielded back, not necessarily the one resumed.
    std::unique_ptr<Fiber> &back = fibers_[current_id_ - 1];
    current_id_ = 0;
    if (back->finished()) {
        back.reset();
        --live_fibers_;
    }
}

std::uint64_t
Context::run(Tick until)
{
    MACH_ASSERT(Fiber::current() == nullptr);
    MACH_ASSERT(!running_);
    running_ = true;
    until_ = until;
    stop_requested_ = false;
    const std::uint64_t in_place_before = in_place_wakes_;
    const std::uint64_t handoffs_before = handoffs_;

    // The queue dispatches whole ticks at a time: all the bookkeeping
    // of finding, sweeping, and popping the front bucket is paid once
    // per distinct tick instead of once per event. Order and stop
    // semantics are identical to the per-event loop.
    std::uint64_t dispatched = 0;
    while (!queue_.empty() && !stop_requested_) {
        const std::uint64_t n =
            queue_.fireTickBatch(until, &now_, &stop_requested_);
        if (n == 0)
            break; // Front tick lies beyond the horizon.
        dispatched += n;
    }

    running_ = false;
    return dispatched + (in_place_wakes_ - in_place_before) +
           (handoffs_ - handoffs_before);
}

} // namespace mach::sim
