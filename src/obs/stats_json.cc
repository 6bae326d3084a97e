#include "obs/stats_json.hh"

#include <fstream>
#include <vector>

#include "obs/metrics.hh"
#include "obs/recorder.hh"
#include "vm/kernel.hh"
#include "xpr/machine_stats.hh"

namespace mach::obs
{

namespace
{

/** The only strings emitted are names; escape just in case. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

char
hexDigit(unsigned v)
{
    return v < 10 ? static_cast<char>('0' + v)
                  : static_cast<char>('a' + v - 10);
}

/** Fixed-width hex keeps the digest out of JSON number territory. */
std::string
hex64(std::uint64_t v)
{
    std::string out = "0x";
    for (int shift = 60; shift >= 0; shift -= 4)
        out += hexDigit(static_cast<unsigned>((v >> shift) & 0xf));
    return out;
}

void
histogramJson(std::string &out, const Histogram &h)
{
    out += "{\"count\": " + std::to_string(h.count());
    out += ", \"sum\": " + std::to_string(h.sum());
    out += ", \"min\": " + std::to_string(h.min());
    out += ", \"max\": " + std::to_string(h.max());
    out += ", \"mean\": " + std::to_string(h.mean());
    out += ", \"p50\": " + std::to_string(h.percentileMille(500));
    out += ", \"p90\": " + std::to_string(h.percentileMille(900));
    out += ", \"p99\": " + std::to_string(h.percentileMille(990));
    out += ", \"p999\": " + std::to_string(h.percentileMille(999));
    out += "}";
}

/** A `"key": {...}` block, one counter per line, in table order. */
template <typename Record, typename Table>
void
counterBlock(std::string &out, const char *key, const Record &record,
             const Table &table)
{
    out += "  " + jsonString(key) + ": {";
    const char *sep = "\n";
    for (const xpr::Counter<Record> &counter : table) {
        out += sep;
        out += "    " + jsonString(counter.name) + ": ";
        out += std::to_string(record.*counter.field);
        sep = ",\n";
    }
    out += "\n  },\n";
}

/** A `"key": [...]` array of one-line objects, one per record. */
template <typename Record, typename Table>
void
rowArray(std::string &out, const char *key,
         const std::vector<Record> &rows, const Table &table, bool last)
{
    out += "  " + jsonString(key) + ": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        out += i == 0 ? "\n    {" : ",\n    {";
        const char *sep = "";
        for (const xpr::Counter<Record> &counter : table) {
            out += sep + jsonString(counter.name) + ": ";
            out += std::to_string(rows[i].*counter.field);
            sep = ", ";
        }
        out += "}";
    }
    out += rows.empty() ? "]" : "\n  ]";
    out += last ? "\n" : ",\n";
}

} // namespace

std::string
statsJson(vm::Kernel &kernel, const StatsMeta &meta)
{
    kern::Machine &machine = kernel.machine();
    const xpr::MachineStats stats = xpr::MachineStats::capture(kernel);
    const Metrics &metrics = machine.recorder().metrics();

    std::string out = "{\n";
    out += "  \"schema\": \"machsim-stats-v1\",\n";
    out += "  \"app\": " + jsonString(meta.app) + ",\n";
    out += "  \"seed\": " + std::to_string(meta.seed) + ",\n";
    out += "  \"ncpus\": " + std::to_string(machine.ncpus()) + ",\n";
    out += "  \"numa_nodes\": " + std::to_string(machine.numaNodes()) +
           ",\n";
    out += "  \"policy\": " + jsonString(meta.policy) + ",\n";
    out += "  \"virtual_runtime_us\": " +
           std::to_string(stats.now_usec) + ",\n";
    out += "  \"digest\": " + jsonString(hex64(xpr::runDigest(kernel))) +
           ",\n";

    out += "  \"histograms\": {";
    bool first = true;
    for (const auto &[name, hist] : metrics.entries()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + jsonString(name) + ": ";
        histogramJson(out, *hist);
    }
    out += first ? "},\n" : "\n  },\n";

    counterBlock(out, "counters", stats, xpr::kMachineCounters);
    // Emitted only when devices exist, so device-less stats output
    // stays byte-identical to the pre-device schema.
    if (!stats.devices.empty()) {
        counterBlock(out, "device_counters", stats,
                     xpr::kDeviceCommandCounters);
        rowArray(out, "devices", stats.devices, xpr::kDeviceCounters,
                 false);
    }
    rowArray(out, "cpus", stats.cpus, xpr::kCpuCounters, true);
    out += "}\n";
    return out;
}

bool
writeStatsJson(const std::string &path, vm::Kernel &kernel,
               const StatsMeta &meta)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file)
        return false;
    file << statsJson(kernel, meta);
    return static_cast<bool>(file);
}

} // namespace mach::obs
