/**
 * @file
 * Unit tests for the simulator core: event queue, fibers, context.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/context.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"

namespace mach::sim
{
namespace
{

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });

    while (!q.empty()) {
        Tick when = 0;
        q.popFront(&when)();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty()) {
        Tick when = 0;
        q.popFront(&when)();
    }
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelRemovesEvent)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(10, [&] { fired = true; });
    q.schedule(20, [] {});
    q.cancel(id);
    EXPECT_EQ(q.size(), 1u);
    Tick when = 0;
    q.popFront(&when)();
    EXPECT_FALSE(fired);
    EXPECT_EQ(when, 20u);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    Tick when = 0;
    q.popFront(&when);
    q.cancel(id); // Must not crash or disturb anything.
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelDefaultIdIsNoop)
{
    EventQueue q;
    q.cancel(EventId{});
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeReportsEarliest)
{
    EventQueue q;
    q.schedule(50, [] {});
    q.schedule(40, [] {});
    EXPECT_EQ(q.nextTime(), 40u);
}

TEST(Context, SleepAdvancesVirtualTime)
{
    Context ctx;
    Tick woke_at = 0;
    ctx.spawn("sleeper", [&] {
        ctx.sleep(100);
        woke_at = ctx.now();
    });
    ctx.run();
    EXPECT_EQ(woke_at, 100u);
    EXPECT_EQ(ctx.now(), 100u);
}

TEST(Context, ZeroFibersAfterCompletion)
{
    Context ctx;
    ctx.spawn("a", [&] { ctx.sleep(1); });
    ctx.spawn("b", [&] { ctx.sleep(2); });
    EXPECT_EQ(ctx.liveFiberCount(), 2u);
    ctx.run();
    EXPECT_EQ(ctx.liveFiberCount(), 0u);
}

TEST(Context, InterleavesFibersDeterministically)
{
    Context ctx;
    std::string trace;
    ctx.spawn("a", [&] {
        trace += 'a';
        ctx.sleep(10);
        trace += 'A';
    });
    ctx.spawn("b", [&] {
        trace += 'b';
        ctx.sleep(5);
        trace += 'B';
    });
    ctx.run();
    EXPECT_EQ(trace, "abBA");
}

TEST(Context, WakeResumesBlockedFiber)
{
    Context ctx;
    bool resumed = false;
    FiberId blocked = ctx.spawn("blocked", [&] {
        ctx.block();
        resumed = true;
    });
    ctx.spawn("waker", [&] {
        ctx.sleep(50);
        ctx.scheduleWake(blocked, ctx.now());
    });
    ctx.run();
    EXPECT_TRUE(resumed);
    EXPECT_EQ(ctx.now(), 50u);
}

TEST(Context, WakeOfFinishedFiberIsIgnored)
{
    Context ctx;
    FiberId id = ctx.spawn("quick", [] {});
    ctx.spawn("late-waker", [&] {
        ctx.sleep(10);
        ctx.scheduleWake(id, ctx.now() + 5);
    });
    ctx.run(); // Must not panic or resurrect the finished fiber.
    EXPECT_EQ(ctx.liveFiberCount(), 0u);
}

TEST(Context, RunUntilBoundsTime)
{
    Context ctx;
    int ticks = 0;
    std::function<void()> tick = [&] {
        ++ticks;
        ctx.scheduleCall(ctx.now() + 10, tick);
    };
    ctx.scheduleCall(0, tick);
    ctx.run(35);
    EXPECT_EQ(ticks, 4); // t = 0, 10, 20, 30.
    EXPECT_LE(ctx.now(), 35u);
}

TEST(Context, RequestStopEndsRun)
{
    Context ctx;
    int events = 0;
    ctx.scheduleCall(1, [&] { ++events; });
    ctx.scheduleCall(2, [&] {
        ++events;
        ctx.requestStop();
    });
    ctx.scheduleCall(3, [&] { ++events; });
    ctx.run();
    EXPECT_EQ(events, 2);
    // A later run() drains the remainder.
    ctx.run();
    EXPECT_EQ(events, 3);
}

TEST(Context, SpawnFromWithinFiber)
{
    Context ctx;
    std::vector<int> order;
    ctx.spawn("parent", [&] {
        order.push_back(1);
        ctx.spawn("child", [&] { order.push_back(2); });
        ctx.sleep(10);
        order.push_back(3);
    });
    ctx.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Context, ManyFibersAllComplete)
{
    Context ctx;
    int done = 0;
    for (int i = 0; i < 200; ++i) {
        ctx.spawn("f" + std::to_string(i), [&ctx, &done, i] {
            ctx.sleep(static_cast<Tick>(i % 17));
            ++done;
        });
    }
    ctx.run();
    EXPECT_EQ(done, 200);
}

TEST(Context, FiberNameLookup)
{
    Context ctx;
    FiberId id = ctx.spawn("named", [&] { ctx.sleep(5); });
    EXPECT_EQ(ctx.fiberName(id), "named");
    ctx.run();
    EXPECT_EQ(ctx.fiberName(id), "<gone>");
}

TEST(Context, NestedSpawnDeepChain)
{
    // Each fiber spawns the next; all must run.
    Context ctx;
    int depth = 0;
    std::function<void(int)> chain = [&](int remaining) {
        ++depth;
        if (remaining > 0) {
            ctx.spawn("link", [&chain, remaining] {
                chain(remaining - 1);
            });
        }
    };
    ctx.spawn("root", [&] { chain(50); });
    ctx.run();
    EXPECT_EQ(depth, 51);
}

TEST(Fiber, CurrentIsNullInScheduler)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Context ctx;
    const Fiber *seen = nullptr;
    ctx.spawn("probe", [&] { seen = Fiber::current(); });
    ctx.run();
    EXPECT_NE(seen, nullptr);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(EventQueue, ScheduledCountIsMonotonic)
{
    EventQueue q;
    EXPECT_EQ(q.scheduledCount(), 0u);
    EventId a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.scheduledCount(), 2u);
    q.cancel(a); // Cancellation does not un-count.
    EXPECT_EQ(q.scheduledCount(), 2u);
}

TEST(Context, RunReturnsDispatchedCount)
{
    Context ctx;
    for (int i = 0; i < 5; ++i)
        ctx.scheduleCall(i + 1, [] {});
    EXPECT_EQ(ctx.run(3), 3u);
    EXPECT_EQ(ctx.run(), 2u);
}

TEST(Context, SpawnDelayDefersStart)
{
    Context ctx;
    Tick started_at = 0;
    ctx.spawn(
        "late", [&] { started_at = ctx.now(); }, 250);
    ctx.run();
    EXPECT_EQ(started_at, 250u);
}

TEST(Context, DeterministicReplay)
{
    // Two identical simulations produce identical traces.
    auto run_once = [] {
        Context ctx;
        std::string trace;
        for (int i = 0; i < 5; ++i) {
            ctx.spawn("f" + std::to_string(i), [&ctx, &trace, i] {
                for (int j = 0; j < 3; ++j) {
                    trace += static_cast<char>('a' + i);
                    ctx.sleep(static_cast<Tick>((i * 7 + j * 3) % 11 +
                                                1));
                }
            });
        }
        ctx.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------
// Event-heap internals: tombstones, same-tick chains, slab recycling.
// ---------------------------------------------------------------------

TEST(EventQueue, CancelThenFireSkipsTombstone)
{
    // Cancel an event that is already at the front of its tick chain;
    // the next pop must sweep past the tombstone to the live event
    // behind it, on the same tick and on a later one.
    EventQueue q;
    std::vector<int> order;
    EventId dead_same = q.schedule(10, [&] { order.push_back(-1); });
    q.schedule(10, [&] { order.push_back(1); });
    EventId dead_later = q.schedule(20, [&] { order.push_back(-2); });
    q.schedule(30, [&] { order.push_back(2); });
    q.cancel(dead_same);
    q.cancel(dead_later);

    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.nextTime(), 10u);
    while (!q.empty()) {
        Tick when = 0;
        q.popFront(&when)();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, InterleavedTicksKeepSequenceOrder)
{
    // Alternate scheduling between two ticks so each tick's FIFO chain
    // is built up interleaved; pops must still follow global
    // (when, seq) order.
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
        const Tick when = (i % 2 == 0) ? 100 : 200;
        q.schedule(when, [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) {
        Tick when = 0;
        q.popFront(&when)();
    }
    EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 1, 3, 5, 7}));
}

TEST(EventQueue, FreeListBoundsSlabAcrossChurn)
{
    // A million schedule/cancel cycles (the kicked-idle-nap pattern)
    // must recycle slab nodes rather than grow the slab: tombstone
    // compaction reclaims cancelled nodes even though their tick never
    // reaches the front.
    EventQueue q;
    bool fired = false;
    q.schedule(1, [&] { fired = true; });
    for (int i = 0; i < 1'000'000; ++i) {
        EventId id = q.schedule(1'000'000 + i % 97, [] {});
        q.cancel(id);
    }
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.scheduledCount(), 1'000'001u);
    // The slab high-water mark stays tiny compared to the churn count.
    EXPECT_LT(q.slabSize(), 1000u);
    // In-use slots are the one live event plus at most the tombstone
    // compaction threshold's worth of not-yet-swept cancelled nodes;
    // every other slot is back on the free list.
    EXPECT_LE(q.slabSize() - q.freeNodeCount(), 65u);

    Tick when = 0;
    q.popFront(&when)();
    EXPECT_TRUE(fired);
    EXPECT_EQ(when, 1u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SlabSlotReuseDoesNotConfuseCancel)
{
    // A stale EventId whose slab slot has been recycled by a newer
    // event must not cancel the newer event.
    EventQueue q;
    EventId old_id = q.schedule(10, [] {});
    Tick when = 0;
    q.popFront(&when); // Slot returns to the free list.

    bool fired = false;
    q.schedule(20, [&] { fired = true; }); // Reuses the slot.
    q.cancel(old_id);                      // Stale handle: must no-op.
    EXPECT_EQ(q.size(), 1u);
    q.popFront(&when)();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, ManySameTickEventsUseOneHeapSlot)
{
    // The bucket layout's point: simultaneous events share one heap
    // item, so the heap tracks distinct ticks, not events.
    EventQueue q;
    for (int i = 0; i < 100; ++i)
        q.schedule(7, [] {});
    q.schedule(9, [] {});
    EXPECT_EQ(q.size(), 101u);
    EXPECT_EQ(q.pendingTickCount(), 2u);
    while (!q.empty()) {
        Tick when = 0;
        q.popFront(&when)();
    }
}

// ---------------------------------------------------------------------
// In-place wakes: a sleep whose wake would fire next moves the clock
// without an event or a fiber switch, and is otherwise invisible.
// ---------------------------------------------------------------------

TEST(Context, LoneSleeperAdvancesInPlace)
{
    Context ctx;
    std::uint64_t seq_before = 0;
    std::uint64_t seq_after = 0;
    ctx.spawn("sleeper", [&] {
        seq_before = ctx.queue().scheduledCount();
        ctx.sleep(100);
        seq_after = ctx.queue().scheduledCount();
        EXPECT_EQ(ctx.now(), 100u);
        EXPECT_TRUE(ctx.queue().empty());
    });
    // The start wake plus the in-place wake, as if both were queued.
    EXPECT_EQ(ctx.run(), 2u);
    EXPECT_EQ(seq_after, seq_before + 1);
    EXPECT_EQ(ctx.inPlaceWakes(), 1u);
}

TEST(Context, PendingEventAtOrBeforeWakeForcesQueuedPath)
{
    for (const Tick pending_at : {Tick{100}, Tick{50}}) {
        Context ctx;
        std::string trace;
        ctx.scheduleCall(pending_at, [&] { trace += 'c'; });
        ctx.spawn("sleeper", [&] {
            ctx.sleep(100);
            trace += 's';
            EXPECT_EQ(ctx.now(), 100u);
        });
        EXPECT_EQ(ctx.run(), 3u);
        // Same tick: the earlier-scheduled call fires first (FIFO).
        EXPECT_EQ(trace, "cs") << "pending at " << pending_at;
        EXPECT_EQ(ctx.inPlaceWakes(), 0u) << "pending at " << pending_at;
    }
}

TEST(Context, PerturbedReservedSeqDelaysInPlaceWake)
{
    // Seq 1 is the sleeper's start wake, seq 2 its sleep's wake.
    SchedulePerturber perturber;
    perturber.delayEvent(2, 7);
    Context ctx;
    ctx.queue().setPerturber(&perturber);
    Tick woke_at = 0;
    ctx.spawn("sleeper", [&] {
        ctx.sleep(100);
        woke_at = ctx.now();
    });
    EXPECT_EQ(ctx.run(), 2u);
    EXPECT_EQ(woke_at, 107u);
    EXPECT_EQ(ctx.inPlaceWakes(), 1u);
    ctx.queue().setPerturber(nullptr);
}

TEST(Context, PerturbationPastPendingEventForcesQueuedPath)
{
    // Unperturbed, the wake at 100 would precede the call at 103; the
    // directive pushes it to 107, behind the call.
    SchedulePerturber perturber;
    perturber.delayEvent(3, 7);
    Context ctx;
    ctx.queue().setPerturber(&perturber);
    std::string trace;
    ctx.scheduleCall(103, [&] { trace += 'c'; });
    ctx.spawn("sleeper", [&] {
        ctx.sleep(100);
        trace += 's';
        EXPECT_EQ(ctx.now(), 107u);
    });
    EXPECT_EQ(ctx.run(), 3u);
    EXPECT_EQ(trace, "cs");
    EXPECT_EQ(ctx.inPlaceWakes(), 0u);
    ctx.queue().setPerturber(nullptr);
}

TEST(Context, WakePastRunHorizonStaysBlocked)
{
    Context ctx;
    Tick woke_at = 0;
    ctx.spawn("sleeper", [&] {
        ctx.sleep(100);
        woke_at = ctx.now();
    });
    EXPECT_EQ(ctx.run(50), 1u); // Only the start wake.
    EXPECT_EQ(woke_at, 0u);
    EXPECT_EQ(ctx.now(), 0u);
    EXPECT_EQ(ctx.queue().size(), 1u);
    EXPECT_EQ(ctx.liveFiberCount(), 1u);
    EXPECT_EQ(ctx.run(), 1u);
    EXPECT_EQ(woke_at, 100u);
    EXPECT_EQ(ctx.inPlaceWakes(), 0u);
}

TEST(Context, StopRequestedInFiberForcesQueuedPath)
{
    Context ctx;
    Tick woke_at = 0;
    ctx.spawn("stopper", [&] {
        ctx.requestStop();
        ctx.sleep(10);
        woke_at = ctx.now();
    });
    EXPECT_EQ(ctx.run(), 1u);
    EXPECT_EQ(woke_at, 0u);
    EXPECT_EQ(ctx.queue().size(), 1u);
    EXPECT_EQ(ctx.run(), 1u);
    EXPECT_EQ(woke_at, 10u);
    EXPECT_EQ(ctx.inPlaceWakes(), 0u);
}

// ---------------------------------------------------------------------
// Handoffs: a blocking fiber fires the next event itself while it is a
// wake of another started fiber, and switches straight to that fiber.
// The events, their order and run()'s count match the queued path.
// ---------------------------------------------------------------------

TEST(Context, HandoffPingPongKeepsTimeSeqOrder)
{
    Context ctx;
    std::string trace;
    for (const char name : {'a', 'b', 'c'}) {
        ctx.spawn(std::string(1, name), [&, name] {
            for (int step = 0; step < 3; ++step) {
                trace += name + std::to_string(ctx.now()) + ' ';
                ctx.sleep(3);
            }
        }, name - 'a');
    }
    // Three start wakes plus nine sleeps, as if every wake were queued.
    EXPECT_EQ(ctx.run(), 12u);
    EXPECT_EQ(trace, "a0 b1 c2 a3 b4 c5 a6 b7 c8 ");
    // c hands to a at 3, 6 and 9, a to b at 4 and 7, b to c at 5 and 8.
    EXPECT_EQ(ctx.handoffs(), 7u);
    EXPECT_EQ(ctx.inPlaceWakes(), 0u);
    EXPECT_EQ(ctx.now(), 11u);
    EXPECT_EQ(ctx.liveFiberCount(), 0u);
}

TEST(Context, HandedToFiberThatFinishesIsReaped)
{
    Context ctx;
    const FiberId a = ctx.spawn("a", [&] { ctx.sleep(5); });
    ctx.spawn("b", [&] {
        ctx.sleep(4);
        ctx.sleep(10);
    });
    ctx.scheduleCall(2, [] {}); // b's wake at 4 goes through the scheduler.
    std::size_t live_at_6 = 0;
    std::string a_name_at_6;
    ctx.scheduleCall(6, [&] {
        live_at_6 = ctx.liveFiberCount();
        a_name_at_6 = ctx.fiberName(a);
    });
    // The scheduler resumes b at 4; b hands to a, which finishes at 5
    // and yields back in b's place.
    EXPECT_EQ(ctx.run(), 7u);
    EXPECT_EQ(ctx.handoffs(), 1u);
    EXPECT_EQ(live_at_6, 1u);
    EXPECT_EQ(a_name_at_6, "<gone>");
    EXPECT_EQ(ctx.liveFiberCount(), 0u);
}

TEST(Context, StopRequestedInHandedToFiberEndsChain)
{
    Context ctx;
    std::string trace;
    ctx.spawn("a", [&] {
        ctx.sleep(1);
        trace += 'a';
        ctx.requestStop();
        ctx.sleep(10);
        trace += 'A';
    });
    ctx.spawn("b", [&] {
        ctx.sleep(5);
        trace += 'b';
    });
    // b hands to a at 1; a's stop keeps b's wake at 5 queued.
    EXPECT_EQ(ctx.run(), 3u);
    EXPECT_EQ(trace, "a");
    EXPECT_EQ(ctx.now(), 1u);
    EXPECT_EQ(ctx.handoffs(), 1u);
    EXPECT_EQ(ctx.run(), 2u);
    EXPECT_EQ(trace, "abA");
    EXPECT_EQ(ctx.liveFiberCount(), 0u);
}

TEST(Context, WakePastRunHorizonIsNotHandedOff)
{
    Context ctx;
    Tick b_woke_at = 0;
    ctx.spawn("a", [&] {
        ctx.sleep(2);
        ctx.sleep(10);
    });
    ctx.spawn("b", [&] {
        ctx.sleep(5);
        b_woke_at = ctx.now();
    });
    // b hands to a at 2; a's next block must not hand on to b at 5.
    EXPECT_EQ(ctx.run(3), 3u);
    EXPECT_EQ(ctx.now(), 2u);
    EXPECT_EQ(b_woke_at, 0u);
    EXPECT_EQ(ctx.handoffs(), 1u);
    EXPECT_EQ(ctx.run(), 2u);
    EXPECT_EQ(b_woke_at, 5u);
}

TEST(Context, StaleWakeAtFrontIsConsumedWithoutSwitch)
{
    Context ctx;
    const FiberId c = ctx.spawn("c", [] {});
    Tick a_woke_at = 0;
    ctx.spawn("a", [&] {
        ctx.scheduleWake(c, 2); // c has finished: a stale wake.
        ctx.sleep(5);
        a_woke_at = ctx.now();
    });
    ctx.spawn("b", [&] { ctx.sleep(6); });
    // b's block consumes the stale wake at 2, then hands to a at 5.
    EXPECT_EQ(ctx.run(), 6u);
    EXPECT_EQ(ctx.handoffs(), 2u);
    EXPECT_EQ(a_woke_at, 5u);
    EXPECT_EQ(ctx.liveFiberCount(), 0u);
}

TEST(Context, OwnWakeAtFrontReturnsWithoutSwitch)
{
    Context ctx;
    Tick woke_at = 0;
    ctx.spawn("a", [&] {
        ctx.scheduleWake(ctx.currentFiber(), 3);
        ctx.block();
        woke_at = ctx.now();
    });
    EXPECT_EQ(ctx.run(), 2u);
    EXPECT_EQ(woke_at, 3u);
    EXPECT_EQ(ctx.handoffs(), 1u);
    EXPECT_EQ(ctx.liveFiberCount(), 0u);
}

TEST(Context, UnstartedFiberStartsThroughScheduler)
{
    Context ctx;
    Fiber *b_started_under = nullptr;
    ctx.spawn("a", [&] { ctx.sleep(5); });
    ctx.spawn("b", [&] { b_started_under = Fiber::current(); }, 1);
    // a blocks with b's start wake at the front: no handoff.
    EXPECT_EQ(ctx.run(), 3u);
    EXPECT_NE(b_started_under, nullptr);
    EXPECT_EQ(ctx.handoffs(), 0u);
    EXPECT_EQ(ctx.liveFiberCount(), 0u);
}

TEST(Context, CallAtFrontEndsChainAndRunsInScheduler)
{
    Context ctx;
    std::string trace;
    bool call_in_scheduler = false;
    ctx.spawn("a", [&] {
        ctx.sleep(5);
        trace += 'a';
    });
    ctx.spawn("b", [&] {
        ctx.sleep(3);
        trace += 'b';
    });
    ctx.scheduleCall(2, [&] {
        call_in_scheduler = Fiber::current() == nullptr;
        trace += 'c';
    });
    EXPECT_EQ(ctx.run(), 5u);
    EXPECT_EQ(trace, "cba");
    EXPECT_TRUE(call_in_scheduler);
    EXPECT_EQ(ctx.handoffs(), 0u);
}

TEST(Context, PerturbedHandedOffWakeIsDelayed)
{
    // Seqs 1 and 2 are the start wakes, seq 3 a's sleep's wake.
    SchedulePerturber perturber;
    perturber.delayEvent(3, 3);
    Context ctx;
    ctx.queue().setPerturber(&perturber);
    Tick a_woke_at = 0;
    ctx.spawn("a", [&] {
        ctx.sleep(4);
        a_woke_at = ctx.now();
    });
    ctx.spawn("b", [&] { ctx.sleep(10); });
    EXPECT_EQ(ctx.run(), 4u);
    EXPECT_EQ(a_woke_at, 7u);
    EXPECT_EQ(ctx.handoffs(), 1u);
    ctx.queue().setPerturber(nullptr);
}

} // namespace
} // namespace mach::sim
