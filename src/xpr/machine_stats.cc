#include "xpr/machine_stats.hh"

#include <cstdio>
#include <functional>
#include <sstream>

#include "base/logging.hh"
#include "hw/tlb.hh"
#include "pmap/policy.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"
#include "xpr/xpr.hh"

namespace mach::xpr
{

MachineStats
MachineStats::capture(vm::Kernel &kernel)
{
    kern::Machine &machine = kernel.machine();
    MachineStats stats;
    stats.cpus.resize(machine.ncpus());
    for (CpuId id = 0; id < machine.ncpus(); ++id) {
        kern::Cpu &cpu = machine.cpu(id);
        CpuStats &out = stats.cpus[id];
        out.tlb_hits = cpu.tlb().hits;
        out.tlb_misses = cpu.tlb().misses;
        out.tlb_writebacks = cpu.tlb().writebacks;
        out.tlb_flushes = cpu.tlb().flushes;
        out.tlb_single_invalidates = cpu.tlb().single_invalidates;
        out.interrupts_taken = cpu.interrupts_taken;
        out.faults_taken = cpu.faults_taken;
        out.remote_mem_accesses = cpu.remote_mem_accesses;
    }

    stats.devices.resize(kernel.deviceCount());
    for (unsigned i = 0; i < kernel.deviceCount(); ++i) {
        const dev::DmaDevice &device = kernel.device(i);
        DeviceStats &out = stats.devices[i];
        out.dma_reads = device.dma_reads;
        out.dma_writes = device.dma_writes;
        out.writes_committed = device.writes_committed;
        out.dma_aborts = device.dma_aborts;
        out.dma_faults = device.dma_faults;
        out.iommu_walks = device.iommu_walks;
        out.drains = device.drains;
        out.iotlb_hits = device.tlb().hits;
        out.iotlb_misses = device.tlb().misses;
        out.iotlb_flushes = device.tlb().flushes;
        out.iotlb_single_invalidates = device.tlb().single_invalidates;
    }

    const pmap::ShootdownController &shoot = kernel.pmaps().shoot();
    stats.device_commands = shoot.device_commands;
    stats.device_sync_waits = shoot.device_sync_waits;
    stats.cross_node_device_commands = shoot.cross_node_device_commands;
    stats.shootdowns_initiated = shoot.initiated;
    stats.delayed_waits = shoot.delayed_waits;
    stats.ipis_sent = shoot.interrupts_sent;
    stats.responder_passes = shoot.responder_passes;
    stats.idle_drains = shoot.idle_drains;
    stats.queue_overflows = shoot.queue_overflows;
    stats.remote_invalidates = shoot.remote_invalidates;
    const pmap::ShootdownPolicy &policy = shoot.policy();
    stats.ipis_elided = policy.ipis_elided;
    stats.flushes_deferred = policy.flushes_deferred;
    stats.deferred_flushes_applied = policy.deferred_flushes_applied;
    stats.actions_merged = policy.actions_merged;
    stats.range_invalidates = policy.range_invalidates;
    stats.full_space_flushes = policy.full_space_flushes;
    stats.reuse_elisions = policy.reuse_elisions;
    stats.cross_node_ipis = shoot.cross_node_ipis;
    stats.forwarded_ipis = shoot.forwarded_ipis;
    stats.remote_faults = kernel.remote_faults;
    stats.local_faults = kernel.local_faults;
    stats.page_migrations = kernel.page_migrations;

    stats.faults_resolved = kernel.faults_resolved;
    stats.faults_failed = kernel.faults_failed;
    stats.cow_copies = kernel.cow_copies;
    stats.zero_fills = kernel.zero_fills;
    stats.pageouts = kernel.pager().pageouts;
    stats.pageins = kernel.pager().pageins;

    stats.now_usec = machine.now() / kUsec;
    stats.free_frames = machine.mem().freeFrames();
    return stats;
}

namespace
{

/** Apply `out.field op= in.field` to every non-gauge row of @p table. */
template <typename Record, typename Table, typename Op>
void
combine(Record &out, const Record &in, const Table &table, Op op)
{
    for (const Counter<Record> &counter : table) {
        if (!counter.gauge)
            out.*counter.field = op(out.*counter.field, in.*counter.field);
    }
}

/** Sum of every record in @p rows, row by row over @p table. */
template <typename Record, typename Table>
Record
sumRows(const std::vector<Record> &rows, const Table &table)
{
    Record total;
    for (const Record &row : rows)
        combine(total, row, table, std::plus<std::uint64_t>());
    return total;
}

} // namespace

MachineStats
MachineStats::since(const MachineStats &earlier) const
{
    MACH_ASSERT(cpus.size() == earlier.cpus.size());
    MACH_ASSERT(devices.size() == earlier.devices.size());
    const std::minus<std::uint64_t> minus;
    MachineStats diff = *this;
    for (std::size_t i = 0; i < cpus.size(); ++i)
        combine(diff.cpus[i], earlier.cpus[i], kCpuCounters, minus);
    for (std::size_t i = 0; i < devices.size(); ++i)
        combine(diff.devices[i], earlier.devices[i], kDeviceCounters, minus);
    combine(diff, earlier, kMachineCounters, minus);
    combine(diff, earlier, kDeviceCommandCounters, minus);
    diff.now_usec -= earlier.now_usec;
    return diff;
}

MachineStats &
MachineStats::operator+=(const MachineStats &other)
{
    const std::plus<std::uint64_t> plus;
    combine(*this, other, kMachineCounters, plus);
    combine(*this, other, kDeviceCommandCounters, plus);
    now_usec += other.now_usec;
    return *this;
}

CpuStats
MachineStats::totals() const
{
    return sumRows(cpus, kCpuCounters);
}

DeviceStats
MachineStats::deviceTotals() const
{
    return sumRows(devices, kDeviceCounters);
}

std::string
MachineStats::report() const
{
    const CpuStats total = totals();
    char buf[1024];
    std::string out;

    std::snprintf(buf, sizeof(buf),
                  "machine stats @ %llu us (%zu cpus, %llu free "
                  "frames)\n",
                  static_cast<unsigned long long>(now_usec),
                  cpus.size(),
                  static_cast<unsigned long long>(free_frames));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  tlb: %llu hits / %llu misses (%.1f%% hit), "
                  "%llu writebacks, %llu flushes, %llu invalidates\n",
                  static_cast<unsigned long long>(total.tlb_hits),
                  static_cast<unsigned long long>(total.tlb_misses),
                  total.hitRatio() * 100.0,
                  static_cast<unsigned long long>(total.tlb_writebacks),
                  static_cast<unsigned long long>(total.tlb_flushes),
                  static_cast<unsigned long long>(
                      total.tlb_single_invalidates));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  vm : %llu faults (%llu failed), %llu zero-fills, "
                  "%llu cow copies, %llu pageouts, %llu pageins\n",
                  static_cast<unsigned long long>(faults_resolved +
                                                  faults_failed),
                  static_cast<unsigned long long>(faults_failed),
                  static_cast<unsigned long long>(zero_fills),
                  static_cast<unsigned long long>(cow_copies),
                  static_cast<unsigned long long>(pageouts),
                  static_cast<unsigned long long>(pageins));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  tlb consistency: %llu shootdowns, %llu IPIs, "
                  "%llu responder passes, %llu idle drains, %llu "
                  "queue overflows, %llu remote invalidates, %llu "
                  "delayed waits\n",
                  static_cast<unsigned long long>(shootdowns_initiated),
                  static_cast<unsigned long long>(ipis_sent),
                  static_cast<unsigned long long>(responder_passes),
                  static_cast<unsigned long long>(idle_drains),
                  static_cast<unsigned long long>(queue_overflows),
                  static_cast<unsigned long long>(remote_invalidates),
                  static_cast<unsigned long long>(delayed_waits));
    out += buf;
    if (ipis_elided + flushes_deferred + actions_merged +
            range_invalidates + full_space_flushes + reuse_elisions >
        0) {
        std::snprintf(
            buf, sizeof(buf),
            "  policy: %llu IPIs elided, %llu flushes deferred "
            "(%llu applied), %llu actions merged, %llu range vs "
            "%llu full-space invalidates, %llu reuse elisions\n",
            static_cast<unsigned long long>(ipis_elided),
            static_cast<unsigned long long>(flushes_deferred),
            static_cast<unsigned long long>(deferred_flushes_applied),
            static_cast<unsigned long long>(actions_merged),
            static_cast<unsigned long long>(range_invalidates),
            static_cast<unsigned long long>(full_space_flushes),
            static_cast<unsigned long long>(reuse_elisions));
        out += buf;
    }
    if (!devices.empty()) {
        const DeviceStats dev_total = deviceTotals();
        std::snprintf(
            buf, sizeof(buf),
            "  dev: %zu devices, %llu reads, %llu writes (%llu "
            "committed, %llu aborted), %llu faults, %llu walks, "
            "%llu/%llu iotlb hits, %llu drains, %llu commands "
            "(%llu cross-node), %llu sync waits\n",
            devices.size(),
            static_cast<unsigned long long>(dev_total.dma_reads),
            static_cast<unsigned long long>(dev_total.dma_writes),
            static_cast<unsigned long long>(dev_total.writes_committed),
            static_cast<unsigned long long>(dev_total.dma_aborts),
            static_cast<unsigned long long>(dev_total.dma_faults),
            static_cast<unsigned long long>(dev_total.iommu_walks),
            static_cast<unsigned long long>(dev_total.iotlb_hits),
            static_cast<unsigned long long>(dev_total.iotlb_hits +
                                            dev_total.iotlb_misses),
            static_cast<unsigned long long>(dev_total.drains),
            static_cast<unsigned long long>(device_commands),
            static_cast<unsigned long long>(
                cross_node_device_commands),
            static_cast<unsigned long long>(device_sync_waits));
        out += buf;
    }
    if (cross_node_ipis + forwarded_ipis + remote_faults +
            local_faults + page_migrations + total.remote_mem_accesses >
        0) {
        const std::uint64_t faults = remote_faults + local_faults;
        std::snprintf(
            buf, sizeof(buf),
            "  numa: %llu cross-node IPIs, %llu forwarded IPIs, "
            "%llu remote accesses, %llu/%llu remote faults (%.1f%%), "
            "%llu migrations\n",
            static_cast<unsigned long long>(cross_node_ipis),
            static_cast<unsigned long long>(forwarded_ipis),
            static_cast<unsigned long long>(total.remote_mem_accesses),
            static_cast<unsigned long long>(remote_faults),
            static_cast<unsigned long long>(faults),
            faults ? 100.0 * static_cast<double>(remote_faults) /
                         static_cast<double>(faults)
                   : 0.0,
            static_cast<unsigned long long>(page_migrations));
        out += buf;
    }
    return out;
}

namespace
{

/** FNV-1a, fixed offsets/primes: stable across platforms/stdlibs. */
std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
fnv1aU64(std::uint64_t hash, std::uint64_t value)
{
    return fnv1a(hash, &value, sizeof(value));
}

} // namespace

std::uint64_t
runDigest(vm::Kernel &kernel)
{
    // The golden digests in tests/determinism_test.cc pin this exact
    // formula.
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::ostringstream print;
    for (const Event &event : kernel.machine().xpr().events()) {
        print << static_cast<int>(event.kind) << ':' << event.cpu
              << ':' << event.timestamp << ':' << event.kernel_pmap
              << ':' << event.pages << ':' << event.procs << ':'
              << event.elapsed << '\n';
    }
    const std::string text = print.str();
    hash = fnv1a(hash, text.data(), text.size());
    hash = fnv1aU64(hash, kernel.machine().now());
    for (CpuId id = 0; id < kernel.machine().ncpus(); ++id) {
        const hw::Tlb &tlb = kernel.machine().cpu(id).tlb();
        hash = fnv1aU64(hash, tlb.hits);
        hash = fnv1aU64(hash, tlb.misses);
        hash = fnv1aU64(hash, tlb.writebacks);
        hash = fnv1aU64(hash, tlb.flushes);
        hash = fnv1aU64(hash, tlb.single_invalidates);
        hash = fnv1aU64(hash, tlb.full_flushes);
        hash = fnv1aU64(hash, tlb.validCount());
    }
    const pmap::ShootdownController &shoot = kernel.pmaps().shoot();
    hash = fnv1aU64(hash, shoot.initiated);
    hash = fnv1aU64(hash, shoot.delayed_waits);
    hash = fnv1aU64(hash, shoot.interrupts_sent);
    hash = fnv1aU64(hash, shoot.responder_passes);
    hash = fnv1aU64(hash, shoot.idle_drains);
    hash = fnv1aU64(hash, shoot.queue_overflows);
    hash = fnv1aU64(hash, shoot.remote_invalidates);
    return hash;
}

} // namespace mach::xpr
