/**
 * @file
 * Integration tests: each evaluation application runs end to end on a
 * fresh simulated machine and exhibits the qualitative behaviour the
 * paper reports for it.
 */

#include <gtest/gtest.h>

#include "apps/agora.hh"
#include "apps/camelot.hh"
#include "apps/consistency_tester.hh"
#include "apps/mach_build.hh"
#include "apps/parthenon.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

hw::MachineConfig
appConfig()
{
    setLogQuiet(true);
    return hw::MachineConfig{};
}

TEST(MachBuildApp, BuildsJobsWithOnlyKernelShootdowns)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    apps::MachBuild::Params params;
    params.jobs = 12;
    params.concurrency = 6;
    apps::MachBuild app(params);
    const apps::WorkloadResult result = app.execute(kernel);

    EXPECT_EQ(app.jobs_completed, 12u);
    // "The Mach kernel build uses multiple processors only for
    // throughput; it does not share memory among user tasks."
    EXPECT_EQ(result.analysis.user_initiator.events, 0u);
    EXPECT_GT(result.analysis.kernel_initiator.events, 0u);
    EXPECT_GT(result.lazy_avoided, 0u);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    // All job tasks were destroyed.
    EXPECT_EQ(kernel.tasks().size(), 0u);
}

TEST(ParthenonApp, ProcessesWorkpileWithAlmostNoShootdowns)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    apps::Parthenon::Params params;
    params.runs = 2;
    apps::Parthenon app(params);
    const apps::WorkloadResult result = app.execute(kernel);

    EXPECT_GT(app.items_processed, 0u);
    // With lazy evaluation the stack-guard reprotects are elided.
    EXPECT_EQ(result.analysis.user_initiator.events, 0u);
    EXPECT_LE(result.analysis.kernel_initiator.events, 6u);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST(ParthenonApp, WithoutLazyEveryLaterThreadStartShoots)
{
    hw::MachineConfig config = appConfig();
    config.lazy_evaluation = false;
    vm::Kernel kernel(config);
    apps::Parthenon::Params params;
    params.runs = 2;
    params.workers = 10;
    apps::Parthenon app(params);
    const apps::WorkloadResult result = app.execute(kernel);

    // The first thread of each run has no parallel sibling yet, so
    // runs x (workers - 1) user shootdowns.
    EXPECT_EQ(result.analysis.user_initiator.events,
              params.runs * (params.workers - 1));
    EXPECT_GT(result.analysis.kernel_initiator.events, 6u);
}

TEST(AgoraApp, BimodalKernelShootdowns)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    apps::Agora app(apps::Agora::Params{});
    const apps::WorkloadResult result = app.execute(kernel);

    EXPECT_GT(app.waves_processed, 0u);
    EXPECT_EQ(result.analysis.user_initiator.events, 0u);
    const auto &k = result.analysis.kernel_initiator;
    ASSERT_GT(k.events, 0u);
    // Setup-phase events involve most of the machine, steady-state
    // events only a few processors: both modes must be present.
    EXPECT_GE(k.procs.max(), 11.0);
    EXPECT_LE(k.procs.min(), 4.0);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST(CamelotApp, OnlyAppWithUserShootdowns)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    apps::Camelot::Params params;
    params.transactions = 60;
    apps::Camelot app(params);
    const apps::WorkloadResult result = app.execute(kernel);

    EXPECT_EQ(app.commits, 60u);
    EXPECT_GT(result.analysis.user_initiator.events, 0u);
    EXPECT_GT(result.analysis.kernel_initiator.events, 0u);
    // Mostly one page per user shootdown, as in Table 3.
    EXPECT_LT(result.analysis.user_initiator.pages.mean(), 4.0);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST(TesterApp, CountersAdvanceBeforeReprotectOnly)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 3, .warmup = 15 * kMsec});
    tester.execute(kernel);

    ASSERT_TRUE(tester.consistent());
    ASSERT_EQ(tester.savedCounters().size(), 3u);
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_GT(tester.savedCounters()[i], 0u);
        EXPECT_EQ(tester.savedCounters()[i], tester.finalCounters()[i]);
    }
}

TEST(TesterApp, ResponderEventsAreSampled)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    // All children on CPUs 0-4 which are the sampled responders.
    apps::ConsistencyTester tester({.children = 4, .warmup = 15 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);
    EXPECT_GT(result.analysis.responder.events, 0u);
    EXPECT_LE(result.analysis.responder.events, 4u);
}

TEST(TesterApp, WorksOnTinyMachine)
{
    hw::MachineConfig config = appConfig();
    config.ncpus = 2;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 1, .warmup = 10 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());
    EXPECT_EQ(result.analysis.user_initiator.events, 1u);
}

// A tester shape the machine cannot host is a configuration error: it
// exits 1 naming both numbers, never an assertion abort.
TEST(TesterAppDeathTest, TooManyChildrenIsFatal)
{
    hw::MachineConfig config = appConfig();
    config.ncpus = 4;
    const auto run = [&config](unsigned children) {
        vm::Kernel kernel(config);
        apps::ConsistencyTester tester(
            {.children = children, .warmup = 10 * kMsec});
        tester.execute(kernel);
    };
    EXPECT_EXIT(run(8), ::testing::ExitedWithCode(1),
                "8 children on 4 CPUs");
    EXPECT_EXIT(run(4), ::testing::ExitedWithCode(1),
                "4 children on 4 CPUs");
    EXPECT_EXIT(run(0), ::testing::ExitedWithCode(1),
                "0 children on 4 CPUs");
}

// A build with no jobs, or no job slots, would otherwise report an
// empty run (or reap from an empty pipeline): both exit 1 by name.
TEST(MachBuildAppDeathTest, ZeroJobsOrConcurrencyIsFatal)
{
    const auto run = [](unsigned jobs, unsigned concurrency) {
        vm::Kernel kernel(appConfig());
        apps::MachBuild app({.jobs = jobs, .concurrency = concurrency});
        app.execute(kernel);
    };
    EXPECT_EXIT(run(0, 14), ::testing::ExitedWithCode(1),
                "build jobs must be at least 1 \\(got 0\\)");
    EXPECT_EXIT(run(12, 0), ::testing::ExitedWithCode(1),
                "job concurrency must be at least 1 \\(got 0\\)");
}

} // namespace
} // namespace mach
