#include "apps/consistency_tester.hh"

#include "base/logging.hh"

namespace mach::apps
{

void
ConsistencyTester::run(vm::Kernel &kernel, kern::Thread &driver)
{
    kern::Machine &machine = kernel.machine();
    // Each child and the main thread need a processor of their own.
    if (params_.children < 1 || params_.children >= machine.ncpus())
        fatal("ConsistencyTester: %u children on %u CPUs; need 1 <= "
              "children < ncpus (one CPU per child plus the main "
              "thread's)",
              params_.children, machine.ncpus());

    vm::Task *task = kernel.createTask("tester");

    // The main thread runs on its own processor, past the children's.
    kern::Thread *main_thread = kernel.spawnThread(
        task, "tester-main",
        [this, &kernel, task](kern::Thread &self) {
            kern::Machine &m = kernel.machine();
            const unsigned k = params_.children;

            // 1. Allocate a page of read-write memory.
            VAddr page = 0;
            const bool ok =
                kernel.vmAllocate(self, *task, &page, kPageSize, true);
            MACH_ASSERT(ok);

            // 2. Start the children, pinned to distinct processors.
            std::vector<kern::Thread *> children;
            for (unsigned i = 0; i < k; ++i) {
                const VAddr counter_va = page + i * 4;
                // The deadline only matters when the shootdown is
                // deliberately broken: inconsistent children never
                // fault and would otherwise increment forever.
                const Tick deadline = m.now() + params_.warmup * 12;
                children.push_back(kernel.spawnThread(
                    task, "tester-child" + std::to_string(i),
                    [counter_va, &m, deadline](kern::Thread &child) {
                        std::uint32_t value = 0;
                        while (m.now() < deadline) {
                            const kern::AccessResult r =
                                child.access(counter_va, ProtWrite);
                            if (!r.ok) {
                                // Unrecoverable write fault: the page
                                // went read-only. The thread "dies".
                                break;
                            }
                            m.mem().write32(r.paddr, ++value);
                            child.cpu().advance(200 * kUsec);
                        }
                    },
                    static_cast<std::int64_t>(i)));
            }

            // Let the children get going and warm their TLB entries.
            self.sleep(params_.warmup);

            // 3. Reprotect read-only and immediately save the counters.
            kernel.vmProtect(self, *task, page, kPageSize, ProtRead);
            saved_.assign(k, 0);
            for (unsigned i = 0; i < k; ++i) {
                const kern::AccessResult r =
                    self.access(page + i * 4, ProtRead);
                MACH_ASSERT(r.ok);
                saved_[i] = m.mem().read32(r.paddr);
            }

            // 4. Wait for the page faults to kill every child.
            for (kern::Thread *child : children)
                self.join(*child);

            // 5. Compare with the saved copy.
            final_.assign(k, 0);
            consistent_ = true;
            for (unsigned i = 0; i < k; ++i) {
                const kern::AccessResult r =
                    self.access(page + i * 4, ProtRead);
                MACH_ASSERT(r.ok);
                final_[i] = m.mem().read32(r.paddr);
                if (final_[i] != saved_[i])
                    consistent_ = false;
            }
        },
        static_cast<std::int64_t>(params_.children));

    driver.join(*main_thread);
}

} // namespace mach::apps
