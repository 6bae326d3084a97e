/**
 * @file
 * Cooperative fibers built on ucontext + GCC's builtin setjmp.
 *
 * Every simulated execution context (a kernel thread running on a
 * simulated CPU, an idle loop, a workload driver) is a Fiber. Exactly one
 * fiber runs at a time on the single host thread, so simulated shared
 * state never needs host-level synchronization; interleaving happens only
 * at explicit simulation points (sim::Context::block and friends), which
 * is what makes every experiment deterministic and replayable.
 *
 * ucontext is used only to enter a fresh stack for the first time
 * (makecontext is the portable way to do that). Every steady-state
 * switch -- scheduler to fiber (resume), fiber to scheduler
 * (yieldToScheduler) and fiber to fiber (switchTo) -- uses
 * __builtin_setjmp/__builtin_longjmp instead. swapcontext pays an
 * rt_sigprocmask syscall per switch, and glibc's longjmp still runs
 * its unwinding hook, a saved-signal-mask check and shadow-stack
 * handling on every call.
 * The builtins save only what the compiler needs to re-enter the
 * saving frame (every other register is spilled around the setjmp),
 * and the jump is a handful of moves and an indirect branch. The
 * simulator never relies on per-fiber signal masks or on unwinding
 * across a switch, so nothing is lost. Under ThreadSanitizer every
 * switch is announced through its fiber API, so TSan keeps one shadow
 * stack per fiber stack.
 */

#ifndef MACH_SIM_FIBER_HH
#define MACH_SIM_FIBER_HH

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

namespace mach::sim
{

/** A cooperatively scheduled execution context with its own stack. */
class Fiber
{
  public:
    using Entry = std::function<void()>;

    /**
     * Default stack size; generous because VM fault paths nest deeply.
     * The stack is left uninitialized, so only the pages a fiber
     * actually touches are ever faulted in.
     */
    static constexpr std::size_t kDefaultStackSize = 256 * 1024;

    /**
     * Create a fiber that will run @p entry when first resumed.
     * The fiber does not start executing until resume() is called.
     */
    Fiber(std::string name, Entry entry,
          std::size_t stack_size = kDefaultStackSize);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** True once the fiber has been entered for the first time. */
    bool started() const { return started_; }

    /** True once entry() has returned. */
    bool finished() const { return finished_; }

    const std::string &name() const { return name_; }

    /**
     * The fiber currently executing, or nullptr when control is in the
     * scheduler (main context).
     */
    static Fiber *current();

    /**
     * Transfer control from the scheduler to this fiber. Must be called
     * from the main context only; returns when the fiber blocks or
     * finishes.
     */
    void resume();

    /**
     * Transfer control from the running fiber straight to this one,
     * without passing through the scheduler. This fiber must have
     * started, be blocked and not be the caller. Returns when some
     * fiber switches back to the caller or the scheduler resumes it.
     * Whichever fiber next yields to the scheduler returns from the
     * resume() that began the chain.
     */
    void switchTo();

    /**
     * Transfer control from this fiber back to the scheduler. Must be
     * called from within the currently running fiber.
     */
    static void yieldToScheduler();

  private:
    static void trampoline(unsigned hi, unsigned lo);
    void start();

    std::string name_;
    Entry entry_;
    std::unique_ptr<unsigned char[]> stack_;
    std::size_t stack_size_;
    /** ThreadSanitizer's context for this stack (null without TSan). */
    void *tsan_ctx_;
    /** First-entry context (stack setup); unused after start(). */
    ucontext_t context_;
    /**
     * Resume point of a blocked fiber (set by yieldToScheduler and
     * switchTo): a __builtin_setjmp buffer. Its five words hold the
     * frame pointer, the resume address and up to three words of
     * saved stack state: the stack pointer, plus on x86-64 built with
     * -fcf-protection the shadow-stack pointer.
     */
    void *env_[5];
    bool started_ = false;
    bool finished_ = false;
};

} // namespace mach::sim

#endif // MACH_SIM_FIBER_HH
