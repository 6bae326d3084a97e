#include "apps/mach_build.hh"

#include <deque>

#include "base/logging.hh"

namespace mach::apps
{

namespace
{
/** Touch (write) the first @p pages pages of a region. */
void
touchPages(kern::Thread &thread, VAddr base, unsigned pages)
{
    for (unsigned i = 0; i < pages; ++i) {
        const bool ok = thread.store32(base + i * kPageSize, 0xc0de0000 + i);
        MACH_ASSERT(ok);
    }
}
} // namespace

void
MachBuild::job(vm::Kernel &kernel, kern::Thread &self,
               std::uint64_t seed, kern::Mutex &unix_server)
{
    Rng rng(seed);

    // Read the source file: a kernel I/O buffer filled by the disk.
    const VAddr src_buf = kernel.kmemAlloc(self, 8 * kPageSize);
    MACH_ASSERT(src_buf != 0);
    kernel.io().request(self, Tick(rng.exponential(18.0) * kMsec));
    touchPages(self, src_buf, static_cast<unsigned>(rng.range(2, 6)));

    // Copy it into the compiler's address space.
    vm::Task &task = *self.task();
    VAddr user_src = 0;
    bool ok = kernel.vmAllocate(self, task, &user_src, 4 * kPageSize,
                                true);
    MACH_ASSERT(ok);
    touchPages(self, user_src, 4);

    // Two kernel scratch regions that are mostly reserved "just in
    // case": the mapping cache is never touched, the scratch buffer
    // only sometimes. Their frees are the lazy-evaluation payoff.
    const VAddr map_cache = kernel.kmemAlloc(self, 8 * kPageSize);
    const VAddr sym_cache = kernel.kmemAlloc(self, 8 * kPageSize);
    const VAddr scratch = kernel.kmemAlloc(self, 8 * kPageSize);
    if (rng.chance(0.3))
        touchPages(self, scratch, 1);

    // Compile. Parts of every job funnel through the serialized Unix
    // compatibility code.
    for (int phase = 0; phase < 3; ++phase) {
        unix_server.lock(self);
        self.compute(Tick(rng.exponential(6.0) * kMsec));
        unix_server.unlock(self);
        self.compute(Tick(rng.exponential(55.0) * kMsec));
    }

    // Write the object file.
    const VAddr out_buf = kernel.kmemAlloc(self, 4 * kPageSize);
    touchPages(self, out_buf, static_cast<unsigned>(rng.range(1, 4)));
    kernel.io().request(self, Tick(rng.exponential(22.0) * kMsec));

    // Release kernel buffers: the touched ones force machine-wide
    // kernel shootdowns; the untouched ones are skipped lazily.
    kernel.kmemFree(self, src_buf, 8 * kPageSize);
    kernel.kmemFree(self, map_cache, 8 * kPageSize);
    kernel.kmemFree(self, sym_cache, 8 * kPageSize);
    kernel.kmemFree(self, scratch, 8 * kPageSize);
    kernel.kmemFree(self, out_buf, 4 * kPageSize);

    ++jobs_completed;
}

void
MachBuild::run(vm::Kernel &kernel, kern::Thread &driver)
{
    if (params_.jobs == 0)
        fatal("MachBuild: build jobs must be at least 1 (got 0)");
    if (params_.concurrency == 0)
        fatal("MachBuild: job concurrency must be at least 1 (got 0)");
    kern::Mutex unix_server("unix-server");

    struct JobSlot
    {
        kern::Thread *thread;
        vm::Task *task;
    };
    std::deque<JobSlot> running;

    auto reap_one = [&] {
        JobSlot slot = running.front();
        running.pop_front();
        driver.join(*slot.thread);
        kernel.destroyTask(driver, slot.task);
    };

    for (unsigned j = 0; j < params_.jobs; ++j) {
        while (running.size() >= params_.concurrency)
            reap_one();
        const std::string job_name = "cc" + std::to_string(j);
        vm::Task *task = kernel.createTask(job_name);
        const std::uint64_t seed = params_.seed + j * 7919;
        kern::Thread *thread = kernel.spawnThread(
            task, job_name,
            [this, &kernel, seed, &unix_server](kern::Thread &self) {
                job(kernel, self, seed, unix_server);
            });
        running.push_back({thread, task});
    }
    while (!running.empty())
        reap_one();
}

} // namespace mach::apps
