/**
 * @file
 * Machine-wide statistics collection and reporting.
 *
 * Gathers the counters scattered across the substrates (TLBs, faults,
 * interrupts, shootdown machinery, pager) into one structure that can
 * be diffed between two points in a run and pretty-printed -- the
 * "utility programs to read the collected data" side of Section 6,
 * generalized beyond shootdown events.
 */

#ifndef MACH_XPR_MACHINE_STATS_HH
#define MACH_XPR_MACHINE_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mach::vm
{
class Kernel;
} // namespace mach::vm

namespace mach::xpr
{

/**
 * One row of a counter table: a stats/JSON name and its field in
 * @p Record. A gauge is a level, not a count: since() and operator+=
 * leave it alone.
 */
template <typename Record>
struct Counter
{
    const char *name;
    std::uint64_t Record::*field;
    bool gauge = false;
};

/** Per-processor counters. */
struct CpuStats
{
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t tlb_writebacks = 0;
    std::uint64_t tlb_flushes = 0;
    std::uint64_t tlb_single_invalidates = 0;
    std::uint64_t interrupts_taken = 0;
    std::uint64_t faults_taken = 0;
    std::uint64_t remote_mem_accesses = 0;

    double
    hitRatio() const
    {
        const std::uint64_t total = tlb_hits + tlb_misses;
        return total ? static_cast<double>(tlb_hits) / total : 0.0;
    }
};

/** Per-DMA-device counters (dev::DmaDevice + its IOTLB). */
struct DeviceStats
{
    std::uint64_t dma_reads = 0;
    std::uint64_t dma_writes = 0;
    std::uint64_t writes_committed = 0;
    std::uint64_t dma_aborts = 0;
    std::uint64_t dma_faults = 0;
    std::uint64_t iommu_walks = 0;
    std::uint64_t drains = 0;
    std::uint64_t iotlb_hits = 0;
    std::uint64_t iotlb_misses = 0;
    std::uint64_t iotlb_flushes = 0;
    std::uint64_t iotlb_single_invalidates = 0;
};

/** Snapshot of every counter of interest on a machine. */
struct MachineStats
{
    std::vector<CpuStats> cpus;

    // DMA devices (empty with devices == 0; kept out of runDigest so
    // device-less goldens are unaffected -- same discipline as the
    // policy and NUMA counters below).
    std::vector<DeviceStats> devices;
    std::uint64_t device_commands = 0;
    std::uint64_t device_sync_waits = 0;
    std::uint64_t cross_node_device_commands = 0;

    // Shootdown machinery.
    std::uint64_t shootdowns_initiated = 0;
    std::uint64_t delayed_waits = 0;
    std::uint64_t ipis_sent = 0;
    std::uint64_t responder_passes = 0;
    std::uint64_t idle_drains = 0;
    std::uint64_t queue_overflows = 0;
    std::uint64_t remote_invalidates = 0;

    // Shootdown-avoidance policy counters (all zero under the Baseline
    // policy; kept out of runDigest so pre-policy goldens are
    // unaffected -- each policy pins its own golden instead).
    std::uint64_t ipis_elided = 0;
    std::uint64_t flushes_deferred = 0;
    std::uint64_t deferred_flushes_applied = 0;
    std::uint64_t actions_merged = 0;
    std::uint64_t range_invalidates = 0;
    std::uint64_t full_space_flushes = 0;
    std::uint64_t reuse_elisions = 0;

    // NUMA interconnect (all zero on single-node machines; kept out of
    // runDigest so single-node goldens are unaffected).
    std::uint64_t cross_node_ipis = 0;
    std::uint64_t forwarded_ipis = 0;
    std::uint64_t remote_faults = 0;
    std::uint64_t local_faults = 0;
    std::uint64_t page_migrations = 0;

    // VM system.
    std::uint64_t faults_resolved = 0;
    std::uint64_t faults_failed = 0;
    std::uint64_t cow_copies = 0;
    std::uint64_t zero_fills = 0;
    std::uint64_t pageouts = 0;
    std::uint64_t pageins = 0;

    // Machine totals.
    std::uint64_t now_usec = 0;
    std::uint64_t free_frames = 0;

    /** Capture the current counters of @p kernel's machine. */
    static MachineStats capture(vm::Kernel &kernel);

    /**
     * Counter-wise difference (this - earlier) over every table; the
     * clock subtracts too, gauges keep this snapshot's value.
     */
    MachineStats since(const MachineStats &earlier) const;

    /**
     * Add @p other's machine-wide counters (gauges excepted) and clock
     * into this, e.g. to sum a bench row over runs. Per-CPU and
     * per-device rows are left alone: see totals(), deviceTotals().
     */
    MachineStats &operator+=(const MachineStats &other);

    /** Machine-wide totals over all CPUs. */
    CpuStats totals() const;

    /** Totals over all DMA devices. */
    DeviceStats deviceTotals() const;

    /** Multi-line human-readable report. */
    std::string report() const;
};

// The counter tables, in `--stats-json` order: since(), operator+=,
// totals(), deviceTotals() and obs::statsJson loop over them. A new
// counter needs its field, a row here, and a line in capture().

/** The `counters` section: machine-wide counters, then the gauges. */
inline constexpr Counter<MachineStats> kMachineCounters[] = {
    {"shootdowns_initiated", &MachineStats::shootdowns_initiated},
    {"delayed_waits", &MachineStats::delayed_waits},
    {"ipis_sent", &MachineStats::ipis_sent},
    {"responder_passes", &MachineStats::responder_passes},
    {"idle_drains", &MachineStats::idle_drains},
    {"queue_overflows", &MachineStats::queue_overflows},
    {"remote_invalidates", &MachineStats::remote_invalidates},
    {"ipis_elided", &MachineStats::ipis_elided},
    {"flushes_deferred", &MachineStats::flushes_deferred},
    {"deferred_flushes_applied",
     &MachineStats::deferred_flushes_applied},
    {"actions_merged", &MachineStats::actions_merged},
    {"range_invalidates", &MachineStats::range_invalidates},
    {"full_space_flushes", &MachineStats::full_space_flushes},
    {"reuse_elisions", &MachineStats::reuse_elisions},
    {"cross_node_ipis", &MachineStats::cross_node_ipis},
    {"forwarded_ipis", &MachineStats::forwarded_ipis},
    {"remote_faults", &MachineStats::remote_faults},
    {"local_faults", &MachineStats::local_faults},
    {"page_migrations", &MachineStats::page_migrations},
    {"faults_resolved", &MachineStats::faults_resolved},
    {"faults_failed", &MachineStats::faults_failed},
    {"cow_copies", &MachineStats::cow_copies},
    {"zero_fills", &MachineStats::zero_fills},
    {"pageouts", &MachineStats::pageouts},
    {"pageins", &MachineStats::pageins},
    {"free_frames", &MachineStats::free_frames, true},
};

/** The `device_counters` section (printed only when devices exist). */
inline constexpr Counter<MachineStats> kDeviceCommandCounters[] = {
    {"device_commands", &MachineStats::device_commands},
    {"device_sync_waits", &MachineStats::device_sync_waits},
    {"cross_node_device_commands",
     &MachineStats::cross_node_device_commands},
};

/** One row of the `cpus` array. */
inline constexpr Counter<CpuStats> kCpuCounters[] = {
    {"tlb_hits", &CpuStats::tlb_hits},
    {"tlb_misses", &CpuStats::tlb_misses},
    {"tlb_writebacks", &CpuStats::tlb_writebacks},
    {"tlb_flushes", &CpuStats::tlb_flushes},
    {"tlb_single_invalidates", &CpuStats::tlb_single_invalidates},
    {"interrupts_taken", &CpuStats::interrupts_taken},
    {"faults_taken", &CpuStats::faults_taken},
    {"remote_mem_accesses", &CpuStats::remote_mem_accesses},
};

/** One row of the `devices` array. */
inline constexpr Counter<DeviceStats> kDeviceCounters[] = {
    {"dma_reads", &DeviceStats::dma_reads},
    {"dma_writes", &DeviceStats::dma_writes},
    {"writes_committed", &DeviceStats::writes_committed},
    {"dma_aborts", &DeviceStats::dma_aborts},
    {"dma_faults", &DeviceStats::dma_faults},
    {"iommu_walks", &DeviceStats::iommu_walks},
    {"drains", &DeviceStats::drains},
    {"iotlb_hits", &DeviceStats::iotlb_hits},
    {"iotlb_misses", &DeviceStats::iotlb_misses},
    {"iotlb_flushes", &DeviceStats::iotlb_flushes},
    {"iotlb_single_invalidates", &DeviceStats::iotlb_single_invalidates},
};

/**
 * FNV-1a digest over a finished run's observable order contract: the
 * xpr event stream, the final clock, every CPU's TLB counters, and
 * the shootdown controller's counters. Equal digests mean equal runs
 * bit-for-bit; `machsim --repeat` prints one per seed and the farm
 * tests compare them across farm widths. The goldens in
 * tests/determinism_test.cc, tests/farm_determinism_test.cc and
 * perfbench/goldens.json pin this exact formula, which reads the
 * owners' counters, not the tables above.
 */
std::uint64_t runDigest(vm::Kernel &kernel);

} // namespace mach::xpr

#endif // MACH_XPR_MACHINE_STATS_HH
