#include "sim/fiber.hh"

#include <cstdint>

#include "base/logging.hh"

// GCC announces ThreadSanitizer with a macro, Clang with a feature.
#if defined(__SANITIZE_THREAD__)
#define MACH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MACH_TSAN 1
#endif
#endif
#if defined(MACH_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace mach::sim
{

namespace
{
/**
 * The fiber currently executing; null while in the scheduler. One slot
 * per host thread: the run farm (src/farm) drives one Machine per
 * worker thread, and each machine's fibers yield to the scheduler
 * context of the thread that resumed them, so the two threads never
 * share fiber state.
 */
thread_local Fiber *current_fiber = nullptr;
/** Resume point of the scheduler (main) context, set by resume(). */
thread_local void *scheduler_env[5];
/** The scheduler's TSan context, set by resume() (null without TSan). */
thread_local void *scheduler_tsan = nullptr;

// ThreadSanitizer keeps one shadow context per stack; every switch
// must name the context it enters. The hooks compile away without
// TSan. The two functions that switch are built without TSan's
// function entry/exit hooks: an entry hook run after the switch would
// push a frame on the shadow stack of the context being entered, and
// nothing would ever pop it.
#if defined(MACH_TSAN)
#define MACH_NO_TSAN_HOOKS __attribute__((no_sanitize_thread))

void *tsanCreate() { return __tsan_create_fiber(0); }
void tsanDestroy(void *ctx) { __tsan_destroy_fiber(ctx); }
void *tsanCurrent() { return __tsan_get_current_fiber(); }
#else
#define MACH_NO_TSAN_HOOKS

void *tsanCreate() { return nullptr; }
void tsanDestroy(void *) {}
void *tsanCurrent() { return nullptr; }
#endif

/**
 * Leave the running context for the one saved in @p env. Out of line:
 * __builtin_longjmp may not share a function with the
 * __builtin_setjmp that saved the caller's own resume point. noipa
 * also keeps it from being cloned under another name, so profiles
 * charge each jump to this function.
 */
[[gnu::noipa]] MACH_NO_TSAN_HOOKS void
jumpTo(void **env, [[maybe_unused]] void *tsan_ctx)
{
#if defined(MACH_TSAN)
    __tsan_switch_to_fiber(tsan_ctx, 0);
#endif
    __builtin_longjmp(env, 1);
}

/** Enter a fresh fiber stack for the first time; never returns. */
[[gnu::noipa]] MACH_NO_TSAN_HOOKS void
enterFresh(ucontext_t *context, [[maybe_unused]] void *tsan_ctx)
{
#if defined(MACH_TSAN)
    __tsan_switch_to_fiber(tsan_ctx, 0);
#endif
    setcontext(context);
    panic("setcontext into a fresh fiber failed");
}
} // namespace

Fiber::Fiber(std::string name, Entry entry, std::size_t stack_size)
    : name_(std::move(name)), entry_(std::move(entry)),
      stack_(std::make_unique_for_overwrite<unsigned char[]>(stack_size)),
      stack_size_(stack_size), tsan_ctx_(tsanCreate())
{
    MACH_ASSERT(entry_ != nullptr);
}

Fiber::~Fiber()
{
    tsanDestroy(tsan_ctx_);
    // Destroying a live, unfinished fiber would leak whatever it holds on
    // its stack; the simulation tears fibers down only after completion
    // or at whole-machine destruction where leaked stack state is inert.
}

Fiber *
Fiber::current()
{
    return current_fiber;
}

void
Fiber::trampoline(unsigned hi, unsigned lo)
{
    auto bits = (static_cast<std::uint64_t>(hi) << 32) |
                static_cast<std::uint64_t>(lo);
    reinterpret_cast<Fiber *>(static_cast<std::uintptr_t>(bits))->start();
}

void
Fiber::start()
{
    entry_();
    finished_ = true;
    yieldToScheduler();
    panic("resumed a finished fiber: %s", name_.c_str());
}

void
Fiber::resume()
{
    MACH_ASSERT(current_fiber == nullptr);
    MACH_ASSERT(!finished_);

    current_fiber = this;
    scheduler_tsan = tsanCurrent();
    // Whichever fiber yields to the scheduler lands here, even if
    // control reached it through switchTo() handoffs.
    if (__builtin_setjmp(scheduler_env) == 0) {
        if (started_)
            jumpTo(env_, tsan_ctx_);
        // First entry: only ucontext can redirect execution onto the
        // fiber's own fresh stack.
        started_ = true;
        if (getcontext(&context_) != 0)
            panic("getcontext failed");
        context_.uc_stack.ss_sp = stack_.get();
        context_.uc_stack.ss_size = stack_size_;
        context_.uc_link = nullptr;
        auto bits = static_cast<std::uint64_t>(
            reinterpret_cast<std::uintptr_t>(this));
        makecontext(&context_,
                    reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                    static_cast<unsigned>(bits >> 32),
                    static_cast<unsigned>(bits & 0xffffffffu));
        enterFresh(&context_, tsan_ctx_);
    }
    current_fiber = nullptr;
}

void
Fiber::switchTo()
{
    Fiber *self = current_fiber;
    MACH_ASSERT(self != nullptr && self != this);
    MACH_ASSERT(started_ && !finished_);
    current_fiber = this;
    // The caller's frame stays alive until some fiber, or the
    // scheduler, jumps back into env_.
    if (__builtin_setjmp(self->env_) == 0)
        jumpTo(env_, tsan_ctx_);
}

void
Fiber::yieldToScheduler()
{
    Fiber *self = current_fiber;
    MACH_ASSERT(self != nullptr);
    if (__builtin_setjmp(self->env_) == 0)
        jumpTo(scheduler_env, scheduler_tsan);
}

} // namespace mach::sim
