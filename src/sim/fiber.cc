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
thread_local std::jmp_buf scheduler_env;

// ThreadSanitizer keeps one shadow context per stack and matches each
// longjmp to a setjmp made in the current context; every switch must
// name the context it enters. The hooks compile away without TSan.
#if defined(MACH_TSAN)
/** The scheduler's TSan context, set by resume(). */
thread_local void *scheduler_tsan = nullptr;

void *
tsanCreate()
{
    return __tsan_create_fiber(0);
}

void
tsanDestroy(void *ctx)
{
    __tsan_destroy_fiber(ctx);
}

void
tsanEnter(void *ctx)
{
    scheduler_tsan = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(ctx, 0);
}

void
tsanLeave()
{
    __tsan_switch_to_fiber(scheduler_tsan, 0);
}
#else
void *tsanCreate() { return nullptr; }
void tsanDestroy(void *) {}
void tsanEnter(void *) {}
void tsanLeave() {}
#endif
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
    if (_setjmp(scheduler_env) == 0) {
        tsanEnter(tsan_ctx_);
        if (!started_) {
            // First entry: only ucontext can redirect execution onto
            // the fiber's own fresh stack. setcontext never returns --
            // the fiber comes back via the _longjmp in
            // yieldToScheduler, landing in the branch above.
            started_ = true;
            if (getcontext(&context_) != 0)
                panic("getcontext failed");
            context_.uc_stack.ss_sp = stack_.get();
            context_.uc_stack.ss_size = stack_size_;
            context_.uc_link = nullptr;
            auto bits = static_cast<std::uint64_t>(
                reinterpret_cast<std::uintptr_t>(this));
            makecontext(&context_,
                        reinterpret_cast<void (*)()>(&Fiber::trampoline),
                        2, static_cast<unsigned>(bits >> 32),
                        static_cast<unsigned>(bits & 0xffffffffu));
            setcontext(&context_);
            panic("setcontext into fiber %s failed", name_.c_str());
        }
        std::longjmp(env_, 1);
    }
    current_fiber = nullptr;
}

void
Fiber::yieldToScheduler()
{
    Fiber *self = current_fiber;
    MACH_ASSERT(self != nullptr);
    // The blocked-fiber frame below stays alive until the matching
    // _longjmp(env_) in resume() reenters it.
    if (_setjmp(self->env_) == 0) {
        tsanLeave();
        std::longjmp(scheduler_env, 1);
    }
}

} // namespace mach::sim
