/**
 * @file
 * Tests for the machine-wide statistics snapshot/diff/report module.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/camelot.hh"
#include "apps/consistency_tester.hh"
#include "hw/bus.hh"
#include "obs/recorder.hh"
#include "obs/stats_json.hh"
#include "xpr/machine_stats.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

TEST(MachineStatsTest, CaptureReflectsActivity)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    vm::Kernel kernel(config);
    const xpr::MachineStats before = xpr::MachineStats::capture(kernel);

    apps::ConsistencyTester tester({.children = 4, .warmup = 15 * kMsec});
    tester.execute(kernel);

    const xpr::MachineStats after = xpr::MachineStats::capture(kernel);
    const xpr::MachineStats delta = after.since(before);

    EXPECT_EQ(delta.cpus.size(), 16u);
    EXPECT_GE(delta.shootdowns_initiated, 1u);
    EXPECT_GE(delta.ipis_sent, 4u);
    EXPECT_GT(delta.faults_resolved, 0u);
    EXPECT_GT(delta.zero_fills, 0u);
    EXPECT_GT(delta.now_usec, 0u);

    const xpr::CpuStats totals = delta.totals();
    EXPECT_GT(totals.tlb_hits, 0u);
    EXPECT_GT(totals.tlb_misses, 0u);
    EXPECT_GT(totals.interrupts_taken, 0u);
    EXPECT_GT(totals.hitRatio(), 0.0);
    EXPECT_LT(totals.hitRatio(), 1.0);
}

TEST(MachineStatsTest, SinceSubtractsCleanly)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 2;
    vm::Kernel kernel(config);
    const xpr::MachineStats a = xpr::MachineStats::capture(kernel);
    const xpr::MachineStats self_delta = a.since(a);
    EXPECT_EQ(self_delta.shootdowns_initiated, 0u);
    EXPECT_EQ(self_delta.totals().tlb_hits, 0u);
    EXPECT_EQ(self_delta.now_usec, 0u);
}

/** Two back-to-back Camelot runs with a stats capture between them. */
class TwoPhaseCamelot : public apps::Workload
{
  public:
    std::string name() const override { return "two-phase"; }

    void
    run(vm::Kernel &kernel, kern::Thread &driver) override
    {
        apps::Camelot({.transactions = 12}).run(kernel, driver);
        middle = xpr::MachineStats::capture(kernel);
        apps::Camelot({.transactions = 12}).run(kernel, driver);
    }

    xpr::MachineStats middle;
};

/**
 * Check @p diff == @p after - @p before on every row of @p table
 * (gauges: diff keeps after's value); returns how many counters moved.
 */
template <typename Record, typename Table>
unsigned
expectTableDiff(const Record &diff, const Record &after,
                const Record &before, const Table &table,
                const std::string &where)
{
    unsigned moved = 0;
    for (const xpr::Counter<Record> &counter : table) {
        const std::uint64_t want =
            counter.gauge ? after.*counter.field
                          : after.*counter.field - before.*counter.field;
        EXPECT_EQ(diff.*counter.field, want) << where << counter.name;
        moved += !counter.gauge && want != 0;
    }
    return moved;
}

TEST(MachineStatsTest, SinceCoversEveryTableRow)
{
    // Two nodes, two DMA devices and the batched policy, so every
    // table -- machine, device-command, per-CPU, per-device -- has
    // rows that move between the two captures.
    setLogQuiet(true);
    hw::MachineConfig config;
    config.seed = 0x7ab1e;
    config.numa_nodes = 2;
    config.devices = 2;
    ASSERT_TRUE(
        hw::applyShootdownPolicy(config, hw::ShootdownPolicy::Batched));
    vm::Kernel kernel(config);
    TwoPhaseCamelot app;
    app.execute(kernel);
    ASSERT_TRUE(kernel.pmaps().auditTlbConsistency().empty());

    const xpr::MachineStats &before = app.middle;
    const xpr::MachineStats after = xpr::MachineStats::capture(kernel);
    const xpr::MachineStats diff = after.since(before);
    ASSERT_EQ(diff.cpus.size(), 16u);
    ASSERT_EQ(diff.devices.size(), 2u);
    EXPECT_EQ(diff.now_usec, after.now_usec - before.now_usec);
    EXPECT_GT(
        expectTableDiff(diff, after, before, xpr::kMachineCounters, ""),
        0u);
    EXPECT_GT(expectTableDiff(diff, after, before,
                              xpr::kDeviceCommandCounters, ""),
              0u);
    unsigned cpu_moved = 0;
    for (std::size_t i = 0; i < diff.cpus.size(); ++i) {
        cpu_moved += expectTableDiff(
            diff.cpus[i], after.cpus[i], before.cpus[i],
            xpr::kCpuCounters, "cpu" + std::to_string(i) + ".");
    }
    EXPECT_GT(cpu_moved, 0u);
    unsigned device_moved = 0;
    for (std::size_t i = 0; i < diff.devices.size(); ++i) {
        device_moved += expectTableDiff(
            diff.devices[i], after.devices[i], before.devices[i],
            xpr::kDeviceCounters, "dev" + std::to_string(i) + ".");
    }
    EXPECT_GT(device_moved, 0u);

    // operator+= undoes since() on the machine-wide tables, and
    // deviceTotals() sums every device row.
    xpr::MachineStats sum = before;
    sum += diff;
    EXPECT_EQ(sum.now_usec, after.now_usec);
    for (const auto &counter : xpr::kMachineCounters) {
        if (!counter.gauge) {
            EXPECT_EQ(sum.*counter.field, after.*counter.field)
                << counter.name;
        }
    }
    for (const auto &counter : xpr::kDeviceCommandCounters) {
        EXPECT_EQ(sum.*counter.field, after.*counter.field)
            << counter.name;
    }
    const xpr::DeviceStats dev_total = after.deviceTotals();
    for (const auto &counter : xpr::kDeviceCounters) {
        EXPECT_EQ(dev_total.*counter.field,
                  after.devices[0].*counter.field +
                      after.devices[1].*counter.field)
            << counter.name;
    }

    // A snapshot minus itself: every counter zero, the gauge intact.
    const xpr::MachineStats zero = after.since(after);
    EXPECT_EQ(zero.now_usec, 0u);
    EXPECT_GT(zero.free_frames, 0u);
    for (const xpr::Counter<xpr::MachineStats> &counter :
         xpr::kMachineCounters) {
        EXPECT_EQ(zero.*counter.field,
                  counter.gauge ? after.*counter.field : 0u)
            << counter.name;
    }
    for (const auto &counter : xpr::kDeviceCommandCounters)
        EXPECT_EQ(zero.*counter.field, 0u) << counter.name;
    for (const xpr::CpuStats &cpu : zero.cpus) {
        for (const auto &counter : xpr::kCpuCounters)
            EXPECT_EQ(cpu.*counter.field, 0u) << counter.name;
    }
    for (const xpr::DeviceStats &device : zero.devices) {
        for (const auto &counter : xpr::kDeviceCounters)
            EXPECT_EQ(device.*counter.field, 0u) << counter.name;
    }

    // Every table name is a key of the --stats-json document.
    const std::string json =
        obs::statsJson(kernel, {"camelot", config.seed, "batched"});
    const auto expectKey = [&json](const char *name) {
        EXPECT_NE(json.find('"' + std::string(name) + "\": "),
                  std::string::npos)
            << name;
    };
    for (const auto &counter : xpr::kMachineCounters)
        expectKey(counter.name);
    for (const auto &counter : xpr::kDeviceCommandCounters)
        expectKey(counter.name);
    for (const auto &counter : xpr::kCpuCounters)
        expectKey(counter.name);
    for (const auto &counter : xpr::kDeviceCounters)
        expectKey(counter.name);
}

TEST(MachineStatsTest, XprOverflowIsDetectedAndWarned)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.xpr_capacity = 4; // Absurdly small: guaranteed wrap.
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 6, .warmup = 15 * kMsec});
    tester.execute(kernel);
    EXPECT_TRUE(kernel.machine().xpr().overflowed());
    EXPECT_EQ(kernel.machine().xpr().size(), 4u);
}

TEST(MachineStatsTest, MemAccessPaysBusContention)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 2;
    config.mem_jitter = 0;
    config.bus_contended_jitter = 0;
    config.bus_contention_threshold = 1;
    vm::Kernel kernel(config);
    kernel.start();
    kernel.spawnThread(nullptr, "bus-probe", [&](kern::Thread &self) {
        kern::Machine &m = kernel.machine();
        const Tick t0 = m.now();
        self.cpu().memAccess(10);
        const Tick uncontended = m.now() - t0;

        hw::Bus::User a(m.bus());
        hw::Bus::User b(m.bus()); // Above threshold now.
        const Tick t1 = m.now();
        self.cpu().memAccess(10);
        const Tick contended = m.now() - t1;
        EXPECT_GT(contended, uncontended);
        EXPECT_EQ(contended - uncontended,
                  10 * m.cfg().bus_penalty_per_user);
        kernel.machine().ctx().requestStop();
    });
    kernel.machine().run();
}

TEST(MachineStatsTest, ReportMentionsEverySection)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 2, .warmup = 10 * kMsec});
    tester.execute(kernel);

    const std::string report =
        xpr::MachineStats::capture(kernel).report();
    EXPECT_NE(report.find("tlb:"), std::string::npos);
    EXPECT_NE(report.find("vm :"), std::string::npos);
    EXPECT_NE(report.find("tlb consistency:"), std::string::npos);
    EXPECT_NE(report.find("shootdowns"), std::string::npos);
}

// ---------------------------------------------------------------------
// Golden digests: the --stats-json and report() bytes
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &data)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char byte : data) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

struct StatsGoldenCase
{
    const char *label;
    /** The optional report line this case exists to print. */
    const char *section;
    hw::ShootdownPolicy policy;
    unsigned numa_nodes;
    unsigned devices;
    std::uint64_t json_golden;
    std::uint64_t report_golden;
};

TEST(MachineStatsGolden, StatsJsonAndReportBytesArePinned)
{
    // One fixed-seed run per section the output can grow: plain, a
    // policy (the report's policy line), two NUMA nodes (the numa
    // line) and two DMA devices (device_counters, devices, the dev
    // line). The tester's one shootdown reaches only running children,
    // so no policy counter moves there; the policy case runs a short
    // Camelot instead. Same-run determinism alone would not catch a
    // key that moved or vanished; these goldens do. Regenerate by
    // printing the digests below after an intentional format change.
    const StatsGoldenCase cases[] = {
        {"baseline", "tlb:", hw::ShootdownPolicy::Baseline, 1, 0,
         0x4bc19b306c838fc4ull, 0x50e76268aa782da0ull},
        {"lazy-asid", "policy:", hw::ShootdownPolicy::LazyAsid, 1, 0,
         0x5442a4c50a4e0fddull, 0x36ac8c331efba55dull},
        {"numa2", "numa:", hw::ShootdownPolicy::Baseline, 2, 0,
         0x61169f0ad9eb1a97ull, 0xb793f037b91ade93ull},
        {"devices2", "dev:", hw::ShootdownPolicy::Baseline, 1, 2,
         0x463fc9ab3cc1cbedull, 0x5e7c678820c91416ull},
    };
    for (const StatsGoldenCase &c : cases) {
        setLogQuiet(true);
        hw::MachineConfig config;
        config.seed = 0x57a75;
        config.numa_nodes = c.numa_nodes;
        config.devices = c.devices;
        ASSERT_TRUE(hw::applyShootdownPolicy(config, c.policy));
        vm::Kernel kernel(config);
        kernel.machine().recorder().enableStats();
        if (c.policy == hw::ShootdownPolicy::Baseline) {
            apps::ConsistencyTester tester(
                {.children = 4, .warmup = 15 * kMsec});
            tester.execute(kernel);
            ASSERT_TRUE(tester.consistent()) << c.label;
        } else {
            apps::Camelot camelot({.transactions = 20});
            camelot.execute(kernel);
            ASSERT_TRUE(kernel.pmaps().auditTlbConsistency().empty())
                << c.label;
        }

        const std::string json =
            obs::statsJson(kernel, {"golden", config.seed, c.label});
        const std::string report =
            xpr::MachineStats::capture(kernel).report();
        EXPECT_NE(report.find(c.section), std::string::npos) << c.label;
        EXPECT_EQ(fnv1a(json), c.json_golden)
            << c.label << " json 0x" << std::hex << fnv1a(json);
        EXPECT_EQ(fnv1a(report), c.report_golden)
            << c.label << " report 0x" << std::hex << fnv1a(report);
    }
}

} // namespace
} // namespace mach
