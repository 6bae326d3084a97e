/**
 * @file
 * Deterministic, cancellable discrete-event queue.
 *
 * Events fire in (time, insertion-sequence) order, so two events scheduled
 * for the same tick fire in the order they were scheduled. This total
 * order is the root of the simulator's determinism.
 *
 * The implementation is built for throughput on the simulator's hot
 * path (every sleep, wake, timer tick, and IPI is one event):
 *
 *   - same-tick events chain into a FIFO bucket (their arrival order IS
 *     their sequence order), and a binary min-heap of 16-byte items
 *     orders only the distinct pending ticks -- so the common case of
 *     many simultaneous events pays the O(log n) sift once per tick,
 *     not once per event, and popping within a tick is O(1);
 *   - an open-addressed tick -> bucket table finds an event's bucket in
 *     O(1), so scheduling into a tick that is already pending never
 *     touches the heap at all;
 *   - payloads live in a slab of recycled nodes (free-list), so neither
 *     scheduling nor cancelling allocates once the slab is warm;
 *   - cancel() is O(1): it releases the payload's resources immediately
 *     and leaves a tombstone in its bucket chain that is reclaimed when
 *     the chain drains (or compacted in bulk when tombstones outnumber
 *     live events);
 *   - fiber wakes -- the dominant event kind -- are stored as a raw
 *     (function pointer, context, token) triple, bypassing
 *     std::function entirely on the schedule *and* dispatch paths.
 *
 * None of this changes the order contract: buckets fire in tick order
 * (ticks are unique, one bucket each) and chains preserve insertion
 * order within a tick, which is exactly the (when, seq) total order the
 * original std::map implementation used. tests/determinism_test.cc
 * pins that contract with golden digests.
 */

#ifndef MACH_SIM_EVENT_QUEUE_HH
#define MACH_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/perturb.hh"
#include "base/types.hh"

namespace mach::sim
{

/** Opaque handle identifying a scheduled event, usable for cancellation. */
struct EventId
{
    Tick when = 0;
    std::uint64_t seq = 0;
    /** Slab slot the payload occupies (cancellation hint). */
    std::uint32_t slot = 0;

    bool valid() const { return seq != 0; }

    bool
    operator<(const EventId &other) const
    {
        if (when != other.when)
            return when < other.when;
        return seq < other.seq;
    }
};

/** Time-ordered queue of callbacks. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /** Allocation-free payload: fn(ctx, token) at fire time. */
    using RawFn = void (*)(void *ctx, std::uint64_t token);

    /** Schedule @p cb to fire at absolute time @p when. */
    EventId schedule(Tick when, Callback cb);

    /**
     * Schedule an allocation-free event: at fire time @p fn is invoked
     * with (@p ctx, @p token). This is the fiber-wake fast path --
     * sim::Context passes itself and the fiber id, so the sleep/wake
     * cycle never touches std::function.
     */
    EventId scheduleRaw(Tick when, RawFn fn, void *ctx,
                        std::uint64_t token);

    /**
     * Remove a previously scheduled event. Cancelling an event that has
     * already fired (or was already cancelled) is a harmless no-op, which
     * simplifies callers that race wakeups against cancellations.
     */
    void cancel(EventId id);

    bool empty() const { return live_ == 0; }
    std::size_t size() const { return live_; }

    /** Time of the earliest pending event; panics if empty. */
    Tick nextTime() const;

    /**
     * Remove and return the earliest event's callback, storing its
     * scheduled time in @p when. Panics if empty, and panics on raw
     * events (only fireFront can dispatch those).
     */
    Callback popFront(Tick *when);

    /**
     * Remove and invoke the earliest event, returning its scheduled
     * time. Dispatches raw events directly. Panics if empty.
     */
    Tick fireFront();

    /** The earliest live event, as peekFront() reports it. */
    struct Front
    {
        Tick when;
        /** Null for a callback event. */
        RawFn fn;
        std::uint64_t token;
    };

    /**
     * Report the earliest live event without removing it; panics if
     * empty. With dropFront() this lets a caller fire a raw event
     * itself -- sim::Context::block's fiber handoff.
     */
    Front peekFront();

    /** Remove the earliest live event without dispatching it. */
    void dropFront();

    /**
     * Dispatch every live event pending at the earliest tick as one
     * batch -- the run loop's path. One front sweep and one heap
     * round trip cover the whole tick instead of one per event; order
     * within the tick is the bucket's FIFO chain, i.e. insertion-
     * sequence order, so the (time, seq) contract (and with it every
     * golden digest and perturbation replay) is untouched. Events an
     * event body schedules *for the current tick* join the same batch,
     * exactly as repeated fireFront() calls would dispatch them.
     *
     * Returns 0 without advancing @p *now when the queue is empty or
     * the front tick lies beyond @p until. Otherwise stores the
     * batch's tick into @p *now (asserting it is monotonic) before the
     * first dispatch and returns the count dispatched. Dispatch stops
     * after the current event once @p *stop reads true, mirroring the
     * per-event requestStop() check of the unbatched loop.
     */
    std::uint64_t fireTickBatch(Tick until, Tick *now,
                                const bool *stop);

    /**
     * Conservative lookahead for the sleep path. Treat @p *when plus
     * the next insertion sequence's perturbation delay as a would-be
     * event; if it would fire next -- strictly before every pending
     * event, and no later than @p until -- consume that sequence
     * exactly as scheduleRaw would, store the perturbed time into
     * @p *when and return true. Nothing is inserted: the caller
     * applies the event's effect itself. Otherwise change nothing and
     * return false, so the caller schedules as usual. Because the
     * claimed event could not have interleaved with any other, the
     * (time, seq) order, `e<seq>` addressing and scheduledCount() are
     * the same as if it had been queued and fired.
     */
    bool claimNext(Tick *when, Tick until);

    /**
     * Total events ever scheduled, claimNext() reservations included
     * (monotonic; used by micro benches and trial digests).
     */
    std::uint64_t scheduledCount() const { return next_seq_ - 1; }

    /**
     * Install (or clear, with nullptr) a perturbation schedule. Each
     * schedule/scheduleRaw consults it by insertion sequence and adds
     * the directed extra delay to the event's firing time. Delays are
     * strictly additive, so `when >= now` is preserved and the (time,
     * seq) order contract is untouched -- the perturbed run is just a
     * different, equally deterministic schedule. The perturber must
     * outlive the queue or be cleared first; a null perturber (the
     * default) costs one predicted-taken branch per schedule.
     */
    void setPerturber(const SchedulePerturber *perturber)
    {
        perturber_ = perturber;
    }

    /** Slab slots currently on the free-list (white-box tests). */
    std::size_t freeNodeCount() const;

    /** Slab capacity ever allocated (white-box tests). */
    std::size_t slabSize() const { return slab_.size(); }

    /** Distinct pending ticks, i.e. the heap's size (white-box tests). */
    std::size_t pendingTickCount() const { return heap_.size(); }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /**
     * The sequence word carries the slab slot in its low bits, so one
     * 64-bit compare orders same-tick events by insertion sequence and
     * one mask recovers the payload. Bounds the slab at 2^20 nodes
     * (pending-event high-water mark, not total events) and the
     * insertion counter at 2^44 events.
     */
    static constexpr unsigned kSlotBits = 20;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t{1} << kSlotBits) - 1;
    /**
     * Node::seq sentinel for a cancelled node still linked into its
     * bucket chain. Real packed sequences are >= 1 << kSlotBits and
     * free slots are 0, so the value cannot collide with either.
     */
    static constexpr std::uint64_t kCancelledSeq = 1;

    /** Slab-resident payload; seq == 0 marks a free slot. */
    struct Node
    {
        std::uint64_t seq = 0; ///< Packed (sequence << kSlotBits | slot).
        RawFn raw_fn = nullptr;
        void *raw_ctx = nullptr;
        std::uint64_t raw_token = 0;
        Callback cb;
        /** Free-list link when free, same-tick FIFO link when pending. */
        std::uint32_t next = kNil;
    };

    /** FIFO of the events pending on one tick. */
    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        /** Free-list link (only meaningful while the bucket is free). */
        std::uint32_t next_free = kNil;
    };

    /** Heap item: one per distinct pending tick. Ticks are unique. */
    struct HeapItem
    {
        Tick when;
        std::uint32_t bucket;
    };

    /** One tick -> bucket mapping in the open-addressed table. */
    struct TickSlot
    {
        Tick when = 0;
        /** kNil = empty, kTombstone = erased, else a bucket index. */
        std::uint32_t bucket = kNil;
    };
    static constexpr std::uint32_t kTombstone = kNil - 1;

    std::uint32_t allocNode();
    void releaseNode(std::uint32_t slot);
    std::uint32_t allocBucket(Tick when);
    void releaseBucket(std::uint32_t index);
    /** Append a filled node to @p when's bucket, creating it if new. */
    EventId enqueue(Tick when, std::uint32_t slot);
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    /**
     * Drop cancelled nodes off the front bucket's chain (and empty
     * buckets off the heap) until a live event leads; panics if none.
     */
    void sweepFront();
    /** Unlink the front event; sweepFront must have run. */
    std::uint32_t takeFront();
    /** Drop every tombstone and rebuild the heap (amortized, bulk). */
    void compact();

    // Tick -> bucket table (open addressing, linear probing).
    static std::uint64_t hashTick(Tick when);
    std::uint32_t tickLookup(Tick when) const;
    void tickInsert(Tick when, std::uint32_t bucket);
    void tickErase(Tick when);
    void tickRebuild(std::size_t capacity);

    std::vector<HeapItem> heap_;
    std::vector<Node> slab_;
    std::vector<Bucket> buckets_;
    std::vector<TickSlot> ticks_;
    std::uint32_t tick_mask_ = 0;
    /** Non-empty tick slots (mappings or tombstones); drives rebuilds. */
    std::uint32_t tick_used_ = 0;
    std::uint32_t free_head_ = kNil;
    std::uint32_t bucket_free_head_ = kNil;
    std::uint64_t next_seq_ = 1;
    const SchedulePerturber *perturber_ = nullptr;
    /** Scheduled, not yet fired or cancelled. */
    std::size_t live_ = 0;
    /** Cancelled nodes still linked into bucket chains. */
    std::size_t tombstones_ = 0;
};

} // namespace mach::sim

#endif // MACH_SIM_EVENT_QUEUE_HH
