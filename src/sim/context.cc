#include "sim/context.hh"

#include <utility>

#include "base/logging.hh"

namespace mach::sim
{

FiberId
Context::spawn(std::string name, Fiber::Entry entry, Tick delay)
{
    FiberId id = next_fiber_id_++;
    fibers_.emplace(id, std::make_unique<Fiber>(std::move(name),
                                                std::move(entry)));
    scheduleWake(id, now_ + delay);
    return id;
}

std::string
Context::fiberName(FiberId id) const
{
    auto it = fibers_.find(id);
    return it == fibers_.end() ? "<gone>" : it->second->name();
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
    MACH_ASSERT(Fiber::current() != nullptr);
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
    auto it = fibers_.find(id);
    if (it == fibers_.end())
        return; // Fiber finished before a stale wake fired.

    FiberId prev = current_id_;
    current_id_ = id;
    it->second->resume();
    current_id_ = prev;

    if (it->second->finished())
        fibers_.erase(it);
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
    return dispatched + (in_place_wakes_ - in_place_before);
}

} // namespace mach::sim
