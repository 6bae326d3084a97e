#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace mach::sim
{

std::uint32_t
EventQueue::allocNode()
{
    if (free_head_ != kNil) {
        const std::uint32_t slot = free_head_;
        free_head_ = slab_[slot].next;
        slab_[slot].next = kNil;
        return slot;
    }
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
}

void
EventQueue::releaseNode(std::uint32_t slot)
{
    Node &node = slab_[slot];
    node.seq = 0;
    node.raw_fn = nullptr;
    node.raw_ctx = nullptr;
    node.raw_token = 0;
    node.cb = nullptr; // Release closure resources eagerly.
    node.next = free_head_;
    free_head_ = slot;
}

std::uint32_t
EventQueue::allocBucket(Tick when)
{
    std::uint32_t index;
    if (bucket_free_head_ != kNil) {
        index = bucket_free_head_;
        bucket_free_head_ = buckets_[index].next_free;
    } else {
        buckets_.emplace_back();
        index = static_cast<std::uint32_t>(buckets_.size() - 1);
    }
    Bucket &bucket = buckets_[index];
    bucket.head = kNil;
    bucket.tail = kNil;
    bucket.next_free = kNil;
    tickInsert(when, index);
    return index;
}

void
EventQueue::releaseBucket(std::uint32_t index)
{
    buckets_[index].next_free = bucket_free_head_;
    bucket_free_head_ = index;
}

// ---- Tick -> bucket table -----------------------------------------------

std::uint64_t
EventQueue::hashTick(Tick when)
{
    std::uint64_t k = when;
    k *= 0x9E3779B97F4A7C15ull;
    k ^= k >> 29;
    return k;
}

std::uint32_t
EventQueue::tickLookup(Tick when) const
{
    if (ticks_.empty())
        return kNil;
    std::uint32_t i =
        static_cast<std::uint32_t>(hashTick(when)) & tick_mask_;
    for (;; i = (i + 1) & tick_mask_) {
        const TickSlot &slot = ticks_[i];
        if (slot.bucket == kNil)
            return kNil;
        if (slot.bucket != kTombstone && slot.when == when)
            return slot.bucket;
    }
}

void
EventQueue::tickInsert(Tick when, std::uint32_t bucket)
{
    if (ticks_.empty())
        tickRebuild(64);
    std::uint32_t i =
        static_cast<std::uint32_t>(hashTick(when)) & tick_mask_;
    while (ticks_[i].bucket != kNil &&
           ticks_[i].bucket != kTombstone)
        i = (i + 1) & tick_mask_;
    if (ticks_[i].bucket == kNil) {
        // Claiming a virgin slot shrinks the empty margin that
        // terminates probes; rebuild before chains degenerate.
        if ((tick_used_ + 1) * 4 > 3 * ticks_.size()) {
            tickRebuild(std::max<std::size_t>(64, 4 * heap_.size()));
            tickInsert(when, bucket);
            return;
        }
        ++tick_used_;
    }
    ticks_[i] = {when, bucket};
}

void
EventQueue::tickErase(Tick when)
{
    std::uint32_t i =
        static_cast<std::uint32_t>(hashTick(when)) & tick_mask_;
    for (;; i = (i + 1) & tick_mask_) {
        TickSlot &slot = ticks_[i];
        MACH_ASSERT(slot.bucket != kNil);
        if (slot.bucket != kTombstone && slot.when == when) {
            slot.bucket = kTombstone;
            return;
        }
    }
}

void
EventQueue::tickRebuild(std::size_t capacity)
{
    std::size_t size = 64;
    while (size < capacity)
        size <<= 1;
    ticks_.assign(size, TickSlot{});
    tick_mask_ = static_cast<std::uint32_t>(size - 1);
    tick_used_ = 0;
    for (const HeapItem &item : heap_) {
        std::uint32_t i =
            static_cast<std::uint32_t>(hashTick(item.when)) &
            tick_mask_;
        while (ticks_[i].bucket != kNil)
            i = (i + 1) & tick_mask_;
        ticks_[i] = {item.when, item.bucket};
        ++tick_used_;
    }
}

// ---- Scheduling ---------------------------------------------------------

EventId
EventQueue::enqueue(Tick when, std::uint32_t slot)
{
    MACH_ASSERT(slot <= kSlotMask);
    const std::uint64_t seq = (next_seq_++ << kSlotBits) | slot;
    slab_[slot].seq = seq;
    slab_[slot].next = kNil;

    const std::uint32_t existing = tickLookup(when);
    if (existing != kNil) {
        // The tick is already pending: FIFO append. Arrival order is
        // sequence order, so the chain preserves the (when, seq)
        // contract without touching the heap.
        Bucket &bucket = buckets_[existing];
        if (bucket.tail == kNil)
            bucket.head = slot;
        else
            slab_[bucket.tail].next = slot;
        bucket.tail = slot;
    } else {
        const std::uint32_t index = allocBucket(when);
        Bucket &bucket = buckets_[index];
        bucket.head = slot;
        bucket.tail = slot;
        heap_.push_back({when, index});
        siftUp(heap_.size() - 1);
    }
    ++live_;
    return EventId{when, seq, slot};
}

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    MACH_ASSERT(cb != nullptr);
    if (perturber_ != nullptr)
        when += perturber_->eventDelay(next_seq_);
    const std::uint32_t slot = allocNode();
    slab_[slot].cb = std::move(cb);
    return enqueue(when, slot);
}

EventId
EventQueue::scheduleRaw(Tick when, RawFn fn, void *ctx,
                        std::uint64_t token)
{
    MACH_ASSERT(fn != nullptr);
    if (perturber_ != nullptr)
        when += perturber_->eventDelay(next_seq_);
    const std::uint32_t slot = allocNode();
    Node &node = slab_[slot];
    node.raw_fn = fn;
    node.raw_ctx = ctx;
    node.raw_token = token;
    return enqueue(when, slot);
}

void
EventQueue::cancel(EventId id)
{
    if (!id.valid())
        return;
    if (id.slot >= slab_.size() || slab_[id.slot].seq != id.seq)
        return; // Already fired or cancelled; the slot moved on.
    // The node stays linked in its bucket chain (no back pointers to
    // unlink in O(1)); release its resources now and let the chain
    // sweep reclaim the slot when the tick drains.
    Node &node = slab_[id.slot];
    node.seq = kCancelledSeq;
    node.raw_fn = nullptr;
    node.raw_ctx = nullptr;
    node.raw_token = 0;
    node.cb = nullptr;
    MACH_ASSERT(live_ > 0);
    --live_;
    ++tombstones_;
    // A sleep/cancel-heavy phase (kicked idle naps, re-armed timeouts)
    // can flood the chains with tombstones whose ticks lie far in the
    // future, where the front sweep would never reach them. Compact in
    // bulk once they dominate; amortized O(1) per cancel.
    if (tombstones_ > 64 && tombstones_ > live_)
        compact();
}

// ---- Heap of distinct ticks ---------------------------------------------

void
EventQueue::siftUp(std::size_t i)
{
    HeapItem item = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (item.when >= heap_[parent].when)
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = item;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    HeapItem item = heap_[i];
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_[child + 1].when < heap_[child].when)
            ++child;
        if (heap_[child].when >= item.when)
            break;
        heap_[i] = heap_[child];
        i = child;
    }
    heap_[i] = item;
}

void
EventQueue::sweepFront()
{
    for (;;) {
        MACH_ASSERT(!heap_.empty());
        Bucket &bucket = buckets_[heap_.front().bucket];
        while (bucket.head != kNil &&
               slab_[bucket.head].seq == kCancelledSeq) {
            const std::uint32_t dead = bucket.head;
            bucket.head = slab_[dead].next;
            releaseNode(dead);
            MACH_ASSERT(tombstones_ > 0);
            --tombstones_;
        }
        if (bucket.head != kNil)
            return;
        // The tick drained to nothing but tombstones: retire it.
        tickErase(heap_.front().when);
        releaseBucket(heap_.front().bucket);
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
    }
}

std::uint32_t
EventQueue::takeFront()
{
    Bucket &bucket = buckets_[heap_.front().bucket];
    const std::uint32_t slot = bucket.head;
    bucket.head = slab_[slot].next;
    if (bucket.head == kNil) {
        tickErase(heap_.front().when);
        releaseBucket(heap_.front().bucket);
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
    }
    --live_;
    return slot;
}

void
EventQueue::compact()
{
    std::size_t kept = 0;
    for (const HeapItem &item : heap_) {
        Bucket &bucket = buckets_[item.bucket];
        // Relink the chain keeping only live nodes; order within the
        // chain (= sequence order) is preserved.
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint32_t slot = bucket.head;
        while (slot != kNil) {
            const std::uint32_t next = slab_[slot].next;
            if (slab_[slot].seq == kCancelledSeq) {
                releaseNode(slot);
            } else {
                if (tail == kNil)
                    head = slot;
                else
                    slab_[tail].next = slot;
                slab_[slot].next = kNil;
                tail = slot;
            }
            slot = next;
        }
        if (head == kNil) {
            tickErase(item.when);
            releaseBucket(item.bucket);
            continue;
        }
        bucket.head = head;
        bucket.tail = tail;
        heap_[kept++] = item;
    }
    heap_.resize(kept);
    tombstones_ = 0;
    // Bottom-up heapify. The internal layout differs from the
    // incremental one, but buckets still pop in unique-tick order, so
    // observable behavior is unchanged.
    for (std::size_t i = heap_.size() / 2; i-- > 0;)
        siftDown(i);
}

// ---- Dispatch -----------------------------------------------------------

bool
EventQueue::claimNext(Tick *when, Tick until)
{
    Tick at = *when;
    if (perturber_ != nullptr)
        at += perturber_->eventDelay(next_seq_);
    if (at > until)
        return false;
    if (live_ != 0) {
        // A pending event at the same tick was scheduled earlier, so
        // it would fire first: only a strictly earlier time is next.
        sweepFront();
        if (heap_.front().when <= at)
            return false;
    }
    ++next_seq_;
    *when = at;
    return true;
}

Tick
EventQueue::nextTime() const
{
    // Sweeping tombstones mutates only host-side bookkeeping, never
    // the logical queue contents; keep the observing API const.
    auto *self = const_cast<EventQueue *>(this);
    self->sweepFront();
    return heap_.front().when;
}

EventQueue::Callback
EventQueue::popFront(Tick *when)
{
    sweepFront();
    *when = heap_.front().when;
    const std::uint32_t slot = takeFront();
    Node &node = slab_[slot];
    MACH_ASSERT(node.cb != nullptr); // Raw events need fireFront().
    Callback cb = std::move(node.cb);
    releaseNode(slot);
    return cb;
}

Tick
EventQueue::fireFront()
{
    sweepFront();
    const Tick when = heap_.front().when;
    const std::uint32_t slot = takeFront();
    Node &node = slab_[slot];
    if (node.raw_fn != nullptr) {
        const RawFn fn = node.raw_fn;
        void *ctx = node.raw_ctx;
        const std::uint64_t token = node.raw_token;
        releaseNode(slot);
        fn(ctx, token);
    } else {
        Callback cb = std::move(node.cb);
        releaseNode(slot);
        cb();
    }
    return when;
}

EventQueue::Front
EventQueue::peekFront()
{
    sweepFront();
    const Node &node = slab_[buckets_[heap_.front().bucket].head];
    return {heap_.front().when, node.raw_fn, node.raw_token};
}

void
EventQueue::dropFront()
{
    sweepFront();
    releaseNode(takeFront());
}

std::uint64_t
EventQueue::fireTickBatch(Tick until, Tick *now, const bool *stop)
{
    if (live_ == 0)
        return 0;
    sweepFront();
    const Tick when = heap_.front().when;
    if (when > until)
        return 0;
    MACH_ASSERT(when >= *now);
    // Advance the clock before dispatch: event bodies read it as
    // their own fire time.
    *now = when;
    std::uint64_t dispatched = 0;
    for (;;) {
        const std::uint32_t slot = takeFront();
        Node &node = slab_[slot];
        if (node.raw_fn != nullptr) {
            const RawFn fn = node.raw_fn;
            void *ctx = node.raw_ctx;
            const std::uint64_t token = node.raw_token;
            releaseNode(slot);
            fn(ctx, token);
        } else {
            Callback cb = std::move(node.cb);
            releaseNode(slot);
            cb();
        }
        ++dispatched;
        if (*stop || live_ == 0)
            break;
        // A dispatched body may have scheduled or cancelled events at
        // this very tick; re-sweep so the front is live before
        // deciding whether the batch continues.
        sweepFront();
        if (heap_.front().when != when)
            break;
    }
    return dispatched;
}

std::size_t
EventQueue::freeNodeCount() const
{
    std::size_t count = 0;
    for (std::uint32_t slot = free_head_; slot != kNil;
         slot = slab_[slot].next)
        ++count;
    return count;
}

} // namespace mach::sim
