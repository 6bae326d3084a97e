#include "base/trace.hh"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <mutex>

#include "base/logging.hh"

namespace mach::trace
{

std::atomic<std::uint32_t> g_mask{None};

namespace
{
/** Serializes sink replacement and line emission across farm workers. */
std::mutex g_sink_mutex;
std::function<void(const std::string &)> g_sink;

const char *
categoryName(Category category)
{
    switch (category) {
      case Shootdown:
        return "shootdown";
      case Pmap:
        return "pmap";
      case Vm:
        return "vm";
      default:
        return "trace";
    }
}
} // namespace

void
enable(std::uint32_t categories)
{
    g_mask.fetch_or(categories, std::memory_order_relaxed);
}

void
disable(std::uint32_t categories)
{
    g_mask.fetch_and(~categories, std::memory_order_relaxed);
}

void
setMask(std::uint32_t categories)
{
    g_mask.store(categories, std::memory_order_relaxed);
}

std::uint32_t
mask()
{
    return g_mask.load(std::memory_order_relaxed);
}

void
setSink(std::function<void(const std::string &)> sink)
{
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    g_sink = std::move(sink);
}

std::uint32_t
parseCategories(const std::string &spec)
{
    std::uint32_t result = None;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string word = spec.substr(pos, comma - pos);
        if (word == "shootdown")
            result |= Shootdown;
        else if (word == "pmap")
            result |= Pmap;
        else if (word == "vm")
            result |= Vm;
        else if (word == "all")
            result |= All;
        else
            fatal("unknown trace category '%s' in '%s' (shootdown | "
                  "pmap | vm | all)",
                  word.c_str(), spec.c_str());
        pos = comma + 1;
    }
    return result;
}

void
log(Category category, Tick now, const char *fmt, ...)
{
    char body[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(body, sizeof(body), fmt, ap);
    va_end(ap);

    char line[600];
    std::snprintf(line, sizeof(line), "%10llu us [%s] %s",
                  static_cast<unsigned long long>(now / kUsec),
                  categoryName(category), body);

    // One lock per emitted line only -- disabled categories never get
    // here -- keeping concurrent machines' lines whole.
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    if (g_sink)
        g_sink(line);
    else
        std::fprintf(stderr, "%s\n", line);
}

} // namespace mach::trace
