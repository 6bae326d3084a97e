/**
 * @file
 * Machine-readable stats export: the `machsim --stats-json` backend.
 *
 * Serializes everything a dashboard or regression gate needs about a
 * finished run -- histogram percentiles, machine counters, policy and
 * NUMA counters, the run digest -- as one JSON document. The output is
 * deterministic: integer-only values, fixed field order (histograms in
 * creation order, counters in the order of xpr's counter tables), no
 * timestamps or host-dependent fields, so the same seed produces
 * byte-identical bytes. Schema is versioned ("machsim-stats-v1"); see
 * docs/OBSERVABILITY.md for the field reference.
 */

#ifndef MACH_OBS_STATS_JSON_HH
#define MACH_OBS_STATS_JSON_HH

#include <cstdint>
#include <string>

namespace mach::vm
{
class Kernel;
} // namespace mach::vm

namespace mach::obs
{

/** Run identity echoed into the document (the caller knows the CLI). */
struct StatsMeta
{
    std::string app;
    std::uint64_t seed = 0;
    std::string policy;
};

/**
 * Render the machine's current state -- recorder histograms,
 * xpr::MachineStats counters, per-CPU TLB counters, run digest -- as a
 * deterministic JSON document. Call after the run completes.
 */
std::string statsJson(vm::Kernel &kernel, const StatsMeta &meta);

/** statsJson() to a file; returns false if the file cannot be opened. */
bool writeStatsJson(const std::string &path, vm::Kernel &kernel,
                    const StatsMeta &meta);

} // namespace mach::obs

#endif // MACH_OBS_STATS_JSON_HH
