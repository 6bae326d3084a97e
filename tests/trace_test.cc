/**
 * @file
 * Tests for the trace facility and its instrumentation of the
 * shootdown, pmap, and fault paths.
 */

#include <gtest/gtest.h>

#include <vector>

#include "apps/consistency_tester.hh"
#include "base/trace.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

/** RAII capture of trace output with a chosen mask. */
class TraceCapture
{
  public:
    explicit TraceCapture(std::uint32_t mask)
    {
        trace::setMask(mask);
        trace::setSink([this](const std::string &line) {
            lines.push_back(line);
        });
    }

    ~TraceCapture()
    {
        trace::setMask(trace::None);
        trace::setSink(nullptr);
    }

    bool
    anyContains(const std::string &needle) const
    {
        for (const std::string &line : lines) {
            if (line.find(needle) != std::string::npos)
                return true;
        }
        return false;
    }

    std::vector<std::string> lines;
};

TEST(Trace, ParseCategories)
{
    EXPECT_EQ(trace::parseCategories("shootdown"), trace::Shootdown);
    EXPECT_EQ(trace::parseCategories("shootdown,vm"),
              trace::Shootdown | trace::Vm);
    EXPECT_EQ(trace::parseCategories("all"), trace::All);
    EXPECT_EQ(trace::parseCategories(""), trace::None);
    // A misspelt word is an error, not a silently empty trace.
    EXPECT_EXIT(trace::parseCategories("nonsense"),
                ::testing::ExitedWithCode(1),
                "unknown trace category 'nonsense'");
}

TEST(TraceDeathTest, UnknownWordAmongKnownOnesIsFatal)
{
    EXPECT_EXIT(trace::parseCategories("shootdown,shootdwn,vm"),
                ::testing::ExitedWithCode(1),
                "unknown trace category 'shootdwn'");
}

TEST(Trace, MaskManipulation)
{
    trace::setMask(trace::None);
    EXPECT_FALSE(trace::enabled(trace::Vm));
    trace::enable(trace::Vm | trace::Pmap);
    EXPECT_TRUE(trace::enabled(trace::Vm));
    EXPECT_TRUE(trace::enabled(trace::Pmap));
    EXPECT_FALSE(trace::enabled(trace::Shootdown));
    trace::disable(trace::Vm);
    EXPECT_FALSE(trace::enabled(trace::Vm));
    trace::setMask(trace::None);
}

TEST(Trace, DisabledProducesNothing)
{
    TraceCapture capture(trace::None);
    setLogQuiet(true);
    hw::MachineConfig config;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 2, .warmup = 10 * kMsec});
    tester.execute(kernel);
    EXPECT_TRUE(capture.lines.empty());
}

TEST(Trace, ShootdownPathEmitsInitiateAndRespond)
{
    TraceCapture capture(trace::Shootdown);
    setLogQuiet(true);
    hw::MachineConfig config;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 3, .warmup = 10 * kMsec});
    tester.execute(kernel);

    EXPECT_TRUE(capture.anyContains("initiates on user pmap"));
    EXPECT_TRUE(capture.anyContains("synchronized after"));
    EXPECT_TRUE(capture.anyContains("responds"));
}

TEST(Trace, VmCategoryCoversFaults)
{
    TraceCapture capture(trace::Vm);
    setLogQuiet(true);
    hw::MachineConfig config;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 2, .warmup = 10 * kMsec});
    tester.execute(kernel);

    EXPECT_TRUE(capture.anyContains("fault at"));
    EXPECT_TRUE(capture.anyContains("resolved"));
    // The children die of a genuine failed write fault.
    EXPECT_TRUE(capture.anyContains("FAILED"));
    // No shootdown lines leak into the vm category.
    EXPECT_FALSE(capture.anyContains("initiates on"));
}

TEST(Trace, PmapCategoryShowsLazySkips)
{
    TraceCapture capture(trace::Pmap);
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 4;
    vm::Kernel kernel(config);
    kernel.start();
    kernel.spawnThread(nullptr, "driver", [&](kern::Thread &drv) {
        vm::Task *task = kernel.createTask("t");
        // A protect over never-touched memory is skipped lazily.
        kern::Thread *t = kernel.spawnThread(
            task, "main", [&](kern::Thread &self) {
                VAddr va = 0;
                kernel.vmAllocate(self, *task, &va, 4 * kPageSize,
                                  true);
                kernel.vmProtect(self, *task, va, 4 * kPageSize,
                                 ProtRead);
            });
        drv.join(*t);
        kernel.machine().ctx().requestStop();
    });
    kernel.machine().run();

    EXPECT_TRUE(capture.anyContains("lazy evaluation skips"));
}

TEST(Trace, LinesCarrySimulatedTimestamps)
{
    TraceCapture capture(trace::Shootdown);
    setLogQuiet(true);
    hw::MachineConfig config;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 2, .warmup = 10 * kMsec});
    tester.execute(kernel);

    ASSERT_FALSE(capture.lines.empty());
    // Every line begins with a right-aligned microsecond timestamp.
    for (const std::string &line : capture.lines)
        EXPECT_NE(line.find(" us ["), std::string::npos) << line;
}

} // namespace
} // namespace mach
