/**
 * @file
 * Lightweight category-gated tracing, in the spirit of gem5's DPRINTF.
 *
 * Tracing is off by default and costs one mask test per site when
 * disabled. Enable categories programmatically (tests, examples) or
 * with `machsim --trace shootdown,vm`.
 *
 * Each line carries the simulated timestamp the caller passes in, so
 * traces from a deterministic run are themselves deterministic.
 */

#ifndef MACH_BASE_TRACE_HH
#define MACH_BASE_TRACE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "base/types.hh"

namespace mach::trace
{

/** Trace categories; combine as a bit mask. */
enum Category : std::uint32_t
{
    None = 0,
    Shootdown = 1u << 0, ///< Initiator/responder phases.
    Pmap = 1u << 1,      ///< pmap operations and lazy decisions.
    Vm = 1u << 2,        ///< Faults and address-space operations.
    All = ~0u,
};

/** Enable the given categories (OR into the mask). */
void enable(std::uint32_t categories);

/** Disable the given categories. */
void disable(std::uint32_t categories);

/** Replace the mask wholesale. */
void setMask(std::uint32_t categories);

/** Current mask. */
std::uint32_t mask();

/**
 * Is any of @p categories enabled? (The cheap inline gate.) The mask
 * is atomic so run-farm worker threads can trace concurrently; the
 * relaxed load compiles to the same plain read as before.
 */
inline bool
enabled(std::uint32_t categories)
{
    extern std::atomic<std::uint32_t> g_mask;
    return (g_mask.load(std::memory_order_relaxed) & categories) != 0;
}

/**
 * Redirect trace output; the default sink writes to stderr. Passing a
 * null function restores the default. Used by tests to capture lines.
 */
void setSink(std::function<void(const std::string &)> sink);

/**
 * Prepend @p prefix to every emitted line. farm::forkMany children set
 * "[child N] " so interleaved lines from concurrent runs stay
 * attributable; empty (the default) adds nothing.
 */
void setLinePrefix(std::string prefix);

/**
 * Parse a comma-separated category list ("shootdown,vm", "all");
 * fatal() naming the first word that is no category.
 */
std::uint32_t parseCategories(const std::string &spec);

/** Emit one line (no gating; call via the MACH_TRACE_LOG macro). */
void log(Category category, Tick now, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** The standard trace site: gate, then format. */
#define MACH_TRACE_LOG(category, now, ...)                              \
    do {                                                                \
        if (::mach::trace::enabled(::mach::trace::category)) {          \
            ::mach::trace::log(::mach::trace::category, (now),          \
                               __VA_ARGS__);                            \
        }                                                               \
    } while (0)

} // namespace mach::trace

#endif // MACH_BASE_TRACE_HH
