/**
 * @file
 * perfbench_driver -- the measuring half of the repo benchmark.
 *
 * Runs one workload of the benchmark (serving, paper-apps, explore)
 * against the simulator library and prints one JSON document of raw
 * measurements on stdout; perfbench/run.py turns it into the reported
 * metrics and applies the correctness gate.
 *
 * Every number is taken from outside the library: host time around
 * calls into each layer's public entry points (vm::Kernel construction
 * and start(), apps::Workload::execute, chk::Explorer campaigns) and
 * counters read afterwards through public accessors
 * (xpr::MachineStats::capture, EventQueue::scheduledCount, Tlb L0
 * counters, Machine::busAccessTotal, xpr::analyze samples, the
 * Serving request aggregates, ExploreResult).
 *
 *   perfbench_driver --workload serving --seed 3 --seconds 20
 *   perfbench_driver --workload explore --seed 3 --traced
 *
 * The measured unit is repeated until --seconds have passed (at least
 * --min-reps times); every repetition must reproduce the first one's
 * simulated results exactly. --traced runs the unit once with no
 * calibration and no extra timing, for the gprof build.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/agora.hh"
#include "apps/camelot.hh"
#include "apps/mach_build.hh"
#include "apps/parthenon.hh"
#include "apps/serving.hh"
#include "base/logging.hh"
#include "base/perturb.hh"
#include "chk/corpus.hh"
#include "chk/explorer.hh"
#include "chk/scenario.hh"
#include "hw/tlb.hh"
#include "obs/recorder.hh"
#include "obs/request.hh"
#include "pmap/pmap.hh"
#include "vm/kernel.hh"
#include "xpr/machine_stats.hh"

using namespace mach;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Workload sizes ----------------------------------------------------

/** Tenants the serving run churns through (8 live, 2 threads each). */
constexpr unsigned kServingTenants = 1024;

/**
 * paper-apps: rounds of the four apps at their paper-sized Params, each
 * round on its own seeds. A single app run's makespan is heavy-tailed in
 * its seed, so the unit pools independent rounds rather than scaling
 * one run up.
 */
constexpr unsigned kPaperRounds = 16;

/** explore: scenario and probe budget (30% systematic, as machsim). */
constexpr const char *kExploreScenario = "vmgen-3x2d";
constexpr unsigned kExploreProbes = 1200;

/** splitmix64: independent per-purpose seeds from the benchmark seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x100000001b3ull + salt * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ---- JSON output -----------------------------------------------------------

/** Minimal ordered JSON object writer (numbers, strings, bools, lists). */
class Json
{
  public:
    Json &num(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(key, buf);
    }
    Json &u64(const char *key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Json &boolean(const char *key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    Json &str(const char *key, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                q += c;
        }
        return raw(key, q + "\"");
    }
    Json &list(const char *key, const std::vector<double> &v)
    {
        std::string s = "[";
        char buf[64];
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "",
                          v[i]);
            s += buf;
        }
        return raw(key, s + "]");
    }
    Json &obj(const char *key, const Json &v) { return raw(key, v.text()); }

    /** Append @p value, already JSON text, under @p key. */
    Json &raw(const char *key, const std::string &value)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"";
        body_ += key;
        body_ += "\": ";
        body_ += value;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

// ---- Host calibration stamp ---------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** A fixed dependent integer chain: pure ALU, no memory traffic. */
double
aluLoopMs()
{
    const auto start = Clock::now();
    std::uint64_t x = 0x243f6a8885a308d3ull;
    for (std::uint64_t i = 0; i < 100'000'000; ++i)
        x = x * 6364136223846793005ull + (i | 1);
    volatile std::uint64_t sink = x;
    (void)sink;
    return secondsSince(start) * 1e3;
}

/**
 * A fixed memset sweep: 512 passes over a 1 MiB buffer, small so that
 * it never sets the process's peak resident set.
 */
double
memsetLoopMs()
{
    constexpr std::size_t kBytes = 1u << 20;
    std::unique_ptr<unsigned char[]> buf(new unsigned char[kBytes]);
    const auto start = Clock::now();
    for (int pass = 0; pass < 512; ++pass) {
        std::memset(buf.get(), pass, kBytes);
        volatile unsigned char sink = buf[(pass * 4099u) % kBytes];
        (void)sink;
    }
    return secondsSince(start) * 1e3;
}

Json
calibration()
{
    Json j;
    j.u64("nproc", std::thread::hardware_concurrency());
    j.str("cpu_model", cpuModel());
    j.num("alu_loop_ms", aluLoopMs());
    j.num("memset_loop_ms", memsetLoopMs());
    return j;
}

// ---- Simulated results of one unit ---------------------------------------

/** Counters read through public accessors after a run. */
struct Counters
{
    std::uint64_t events_scheduled = 0;
    std::uint64_t interrupts_taken = 0;
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t l0_hits = 0;
    std::uint64_t l0_misses = 0;
    std::uint64_t bus_accesses = 0;
    std::uint64_t tlb_flushes = 0;
    std::uint64_t tlb_invalidates = 0;
    std::uint64_t faults = 0;
    std::uint64_t faults_failed = 0;
    std::uint64_t zero_fills = 0;
    std::uint64_t cow_copies = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t ipis = 0;
    std::uint64_t responder_passes = 0;
    std::uint64_t idle_drains = 0;
    std::uint64_t queue_overflows = 0;
    std::uint64_t lazy_avoided = 0;
    Tick sim_runtime = 0;

    void
    add(vm::Kernel &kernel, const apps::WorkloadResult &result)
    {
        kern::Machine &machine = kernel.machine();
        const xpr::MachineStats stats = xpr::MachineStats::capture(kernel);
        const xpr::CpuStats cpu = stats.totals();
        events_scheduled += machine.ctx().queue().scheduledCount();
        interrupts_taken += cpu.interrupts_taken;
        tlb_hits += cpu.tlb_hits;
        tlb_misses += cpu.tlb_misses;
        for (CpuId id = 0; id < machine.ncpus(); ++id) {
            l0_hits += machine.cpu(id).tlb().l0_hits;
            l0_misses += machine.cpu(id).tlb().l0_misses;
        }
        bus_accesses += machine.busAccessTotal();
        tlb_flushes += cpu.tlb_flushes;
        tlb_invalidates += cpu.tlb_single_invalidates;
        faults += stats.faults_resolved + stats.faults_failed;
        faults_failed += stats.faults_failed;
        zero_fills += stats.zero_fills;
        cow_copies += stats.cow_copies;
        shootdowns += stats.shootdowns_initiated;
        ipis += stats.ipis_sent;
        responder_passes += stats.responder_passes;
        idle_drains += stats.idle_drains;
        queue_overflows += stats.queue_overflows;
        lazy_avoided += result.lazy_avoided;
        sim_runtime += result.virtual_runtime;
    }

    Json
    json() const
    {
        Json j;
        j.u64("events_scheduled", events_scheduled)
            .u64("interrupts_taken", interrupts_taken)
            .u64("tlb_hits", tlb_hits)
            .u64("tlb_misses", tlb_misses)
            .u64("l0_hits", l0_hits)
            .u64("l0_misses", l0_misses)
            .u64("bus_accesses", bus_accesses)
            .u64("tlb_flushes", tlb_flushes)
            .u64("tlb_invalidates", tlb_invalidates)
            .u64("faults", faults)
            .u64("faults_failed", faults_failed)
            .u64("zero_fills", zero_fills)
            .u64("cow_copies", cow_copies)
            .u64("shootdowns", shootdowns)
            .u64("ipis", ipis)
            .u64("responder_passes", responder_passes)
            .u64("idle_drains", idle_drains)
            .u64("queue_overflows", queue_overflows)
            .u64("lazy_avoided", lazy_avoided)
            .u64("sim_runtime_ticks", sim_runtime);
        return j;
    }
};

/** Shootdown time samples pooled across the unit's machines. */
struct Shootdowns
{
    Sample initiator; ///< Kernel and user initiator sync times (usec).
    Sample responder;

    void
    add(const xpr::RunAnalysis &a)
    {
        for (double v : a.kernel_initiator.time_usec.values())
            initiator.add(v);
        for (double v : a.user_initiator.time_usec.values())
            initiator.add(v);
        for (double v : a.responder.time_usec.values())
            responder.add(v);
    }

    Json
    json() const
    {
        Json j;
        const bool any = initiator.count() != 0;
        j.u64("initiator_samples", initiator.count())
            .num("initiator_p50_us", any ? initiator.percentile(0.5) : 0)
            .num("initiator_p99_us", any ? initiator.percentile(0.99) : 0)
            .num("initiator_mean_us", any ? initiator.mean() : 0)
            .u64("responder_samples", responder.count())
            .num("responder_mean_us",
                 responder.count() != 0 ? responder.mean() : 0);
        return j;
    }
};

/** What one repetition of a workload produced, apart from host time. */
struct Outcome
{
    bool audit_clean = true;
    bool overflowed = false;
    /** Per-machine runDigest values, in run order. */
    std::vector<std::uint64_t> digests;
    /** paper-apps: each round's simulated makespan (the four apps). */
    std::vector<double> round_sim_us;
    std::uint64_t ops = 0;
    /** Everything else, as JSON (must repeat exactly across reps). */
    std::string sim_json;
    /** paper-apps: the per-app means of the model-error report, as JSON. */
    std::string extra_json;
};

// ---- serving ------------------------------------------------------------

hw::MachineConfig
servingConfig(std::uint64_t seed)
{
    hw::MachineConfig config; // 16-CPU single-node Multimax
    config.seed = derive(seed, 1);
    return config;
}

Outcome
runServing(std::uint64_t seed, std::vector<double> *round_s)
{
    vm::Kernel kernel(servingConfig(seed));
    kernel.start();
    kernel.machine().recorder().enableStats();

    apps::Serving::Params params;
    params.tenants = kServingTenants;
    params.seed = derive(seed, 2);
    apps::Serving app(params);
    const auto start = Clock::now();
    const apps::WorkloadResult result = app.execute(kernel);
    round_s->push_back(secondsSince(start));

    Outcome out;
    out.audit_clean = kernel.pmaps().auditTlbConsistency().empty();
    out.overflowed = result.analysis.overflowed;
    out.digests.push_back(xpr::runDigest(kernel));
    out.ops = app.requests_completed;

    Counters c;
    c.add(kernel, result);
    Shootdowns s;
    s.add(result.analysis);
    Json req;
    req.u64("requests", app.requests_completed)
        .u64("request_ticks", app.request_ticks);
    for (unsigned i = 0; i < obs::kReqComponents; ++i)
        req.u64(obs::reqComponentName(static_cast<obs::ReqComponent>(i)),
                app.component_ticks[i]);
    Json sim;
    sim.obj("counters", c.json())
        .obj("shootdowns", s.json())
        .obj("requests", req);
    out.sim_json = sim.text();
    return out;
}

/** Host seconds of one serving set-up (its teardown not included). */
double
servingSetupOnly(std::uint64_t seed)
{
    const auto start = Clock::now();
    vm::Kernel kernel(servingConfig(seed));
    kernel.start();
    kernel.machine().recorder().enableStats();
    return secondsSince(start);
}

// ---- paper-apps ---------------------------------------------------------

constexpr unsigned kPaperApps = 4;
constexpr const char *kPaperAppNames[kPaperApps] = {"mach_build",
                                                    "parthenon", "agora",
                                                    "camelot"};

/** An app at its paper-sized Params, on workload seed @p seed. */
template <class App>
std::unique_ptr<apps::Workload>
seededApp(std::uint64_t seed)
{
    typename App::Params p;
    p.seed = seed;
    return std::make_unique<App>(p);
}

std::unique_ptr<apps::Workload>
makePaperApp(unsigned index, std::uint64_t seed)
{
    switch (index) {
      case 0:
        return seededApp<apps::MachBuild>(seed);
      case 1:
        return seededApp<apps::Parthenon>(seed);
      case 2:
        return seededApp<apps::Agora>(seed);
      default:
        return seededApp<apps::Camelot>(seed);
    }
}

hw::MachineConfig
paperConfig(std::uint64_t seed)
{
    hw::MachineConfig config; // 16 CPUs, recorder off (the default)
    config.seed = seed;
    return config;
}

/** One app's shootdown samples pooled over the rounds. */
struct PaperApp
{
    Sample kernel;
    Sample user;
    Sample responder;
    Tick sim_runtime = 0;

    Json
    json() const
    {
        const auto mean = [](const Sample &x) {
            return x.count() != 0 ? x.mean() : 0.0;
        };
        Json j;
        j.u64("kernel_events", kernel.count())
            .num("kernel_mean_us", mean(kernel))
            .u64("user_events", user.count())
            .num("user_mean_us", mean(user))
            .u64("responder_events", responder.count())
            .num("responder_mean_us", mean(responder))
            .u64("sim_runtime_ticks", sim_runtime);
        return j;
    }
};

Outcome
runPaperApps(std::uint64_t seed, std::vector<double> *round_s)
{
    Outcome out;
    Counters c;
    Shootdowns s;
    PaperApp per_app[kPaperApps];
    for (unsigned round = 0; round < kPaperRounds; ++round) {
        double host_s = 0;
        Tick sim_ticks = 0;
        for (unsigned i = 0; i < kPaperApps; ++i) {
            const std::uint64_t run_seed = derive(seed, 100 + round * 8 + i);
            vm::Kernel kernel(paperConfig(run_seed));
            kernel.start();
            std::unique_ptr<apps::Workload> app =
                makePaperApp(i, derive(run_seed, 1));
            const auto start = Clock::now();
            const apps::WorkloadResult result = app->execute(kernel);
            host_s += secondsSince(start);
            sim_ticks += result.virtual_runtime;

            out.audit_clean = out.audit_clean &&
                              kernel.pmaps().auditTlbConsistency().empty();
            out.overflowed = out.overflowed || result.analysis.overflowed;
            out.digests.push_back(xpr::runDigest(kernel));
            const xpr::MachineStats stats =
                xpr::MachineStats::capture(kernel);
            out.ops += stats.faults_resolved + stats.faults_failed;
            c.add(kernel, result);
            s.add(result.analysis);

            // The Table 2-4 per-app means, for the model-error report.
            const xpr::RunAnalysis &a = result.analysis;
            PaperApp &p = per_app[i];
            for (double v : a.kernel_initiator.time_usec.values())
                p.kernel.add(v);
            for (double v : a.user_initiator.time_usec.values())
                p.user.add(v);
            for (double v : a.responder.time_usec.values())
                p.responder.add(v);
            p.sim_runtime += result.virtual_runtime;
        }
        round_s->push_back(host_s);
        out.round_sim_us.push_back(static_cast<double>(sim_ticks) / kUsec);
    }
    Json sim;
    sim.obj("counters", c.json()).obj("shootdowns", s.json());
    out.sim_json = sim.text();
    Json apps_json;
    for (unsigned i = 0; i < kPaperApps; ++i)
        apps_json.obj(kPaperAppNames[i], per_app[i].json());
    out.extra_json = apps_json.text();
    return out;
}

/** Host seconds of one paper-app machine's set-up (teardown excluded). */
double
paperSetupOnly(std::uint64_t seed)
{
    const auto start = Clock::now();
    vm::Kernel kernel(paperConfig(derive(seed, 100)));
    kernel.start();
    return secondsSince(start);
}

// ---- explore ----------------------------------------------------------------

chk::Scenario
exploreScenario()
{
    chk::Scenario scenario;
    if (!chk::resolveScenario(kExploreScenario, &scenario))
        fatal("perfbench: unknown scenario %s", kExploreScenario);
    return scenario;
}

/**
 * Host seconds of the vmgen scenario generation plus the set-up every
 * trial of a campaign pays: its machine's construction and start().
 */
double
exploreSetupOnly(std::uint64_t)
{
    const auto start = Clock::now();
    const chk::Scenario scenario = exploreScenario();
    vm::Kernel kernel(scenario.config);
    kernel.start();
    return secondsSince(start);
}

Outcome
runExplore(std::uint64_t seed, std::vector<double> *round_s)
{
    const chk::Scenario scenario = exploreScenario();

    chk::Corpus corpus;
    chk::ExploreOptions opt;
    opt.systematic_budget = kExploreProbes * 3 / 10;
    opt.random_budget = kExploreProbes - opt.systematic_budget;
    opt.coverage_guided = true;
    opt.corpus = &corpus;
    opt.seed = derive(seed, 30);
    // Serial farm with the default fork-snapshot policy.
    chk::Explorer explorer(nullptr, farm::FarmOptions{});
    const auto start = Clock::now();
    const chk::ExploreResult res = explorer.explore(scenario, opt);
    round_s->push_back(secondsSince(start));

    Outcome out;
    out.audit_clean = !res.foundFailure();
    out.digests.push_back(res.baseline.digest);
    out.ops = res.trials;
    Json chk_json;
    chk_json.u64("trials", res.trials)
        .u64("failures", res.failures)
        .boolean("baseline_failed", res.baseline_failed)
        .u64("coverage_novel", res.coverage_novel)
        .u64("duplicates_skipped", res.duplicate_probes_skipped)
        .u64("buckets", corpus.buckets(scenario.name))
        .u64("baseline_end_ticks", res.baseline.end_time)
        .u64("baseline_events", res.baseline.events_fired)
        .u64("baseline_bus_accesses", res.baseline.bus_accesses);
    Json sim;
    sim.obj("chk", chk_json);
    out.sim_json = sim.text();
    return out;
}

/**
 * The explored scenario's unperturbed trial, timed alone: the
 * simulation speed of the many short NUMA + DMA machines a campaign
 * runs. Returns host seconds; @p sim_ticks receives its makespan.
 */
double
timeBaselineTrial(const chk::Scenario &scenario, Tick *sim_ticks)
{
    chk::Explorer explorer(nullptr, farm::FarmOptions{});
    const SchedulePerturber none;
    const auto start = Clock::now();
    const chk::TrialResult r = explorer.runTrial(scenario, none);
    const double s = secondsSince(start);
    *sim_ticks = r.end_time;
    return s;
}

// ---- Driver -----------------------------------------------------------------

constexpr std::size_t kSetupSamples = 15;
constexpr double kSetupBatchSeconds = 0.02;
constexpr double kTrialBatchSeconds = 0.3;

/**
 * One set-up sample. A set-up takes well under a millisecond, so a
 * sample is the mean over a batch of set-ups worth >= 20 ms; the
 * reported figure is the median sample.
 */
double
setupSample(double (*setup)(std::uint64_t), std::uint64_t seed)
{
    double total = 0;
    unsigned n = 0;
    while (total < kSetupBatchSeconds) {
        total += setup(seed);
        ++n;
    }
    return total / n;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    unsigned min_reps = 3;
    bool traced = false;
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        if (flag == "--workload" && has_value) {
            a->workload = argv[++i];
        } else if (flag == "--seed" && has_value) {
            a->seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (flag == "--seconds" && has_value) {
            a->seconds = std::atof(argv[++i]);
        } else if (flag == "--min-reps" && has_value) {
            a->min_reps = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (flag == "--traced") {
            a->traced = true;
        } else {
            return false;
        }
    }
    return a->workload == "serving" || a->workload == "paper-apps" ||
           a->workload == "explore";
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload "
                     "serving|paper-apps|explore --seed N [--seconds S] "
                     "[--min-reps N] [--traced]\n");
        return 2;
    }
    setLogQuiet(true);

    Outcome (*unit)(std::uint64_t, std::vector<double> *) =
        args.workload == "serving"      ? runServing
        : args.workload == "paper-apps" ? runPaperApps
                                        : runExplore;

    Json doc;
    doc.str("workload", args.workload).u64("seed", args.seed);
    if (!args.traced)
        doc.obj("calibration", calibration());

    // The measured phase: repeat the unit until the time is up. Every
    // repetition must reproduce the first one bit for bit.
    // Set-up samples and (explore) unperturbed-trial timings are taken
    // between repetitions, so that they spread over the whole phase.
    std::vector<double> run_s;
    std::vector<double> round_s;
    std::vector<double> setup_samples;
    std::vector<double> trial_s;
    Tick trial_sim_ticks = 0;
    Outcome first;
    bool deterministic = true;
    const chk::Scenario scenario = exploreScenario();
    const unsigned min_reps = args.traced ? 1 : std::max(1u, args.min_reps);
    double (*setup)(std::uint64_t) =
        args.workload == "serving"      ? servingSetupOnly
        : args.workload == "paper-apps" ? paperSetupOnly
                                        : exploreSetupOnly;
    const auto phase_start = Clock::now();
    for (unsigned rep = 0;; ++rep) {
        std::vector<double> rounds;
        const Outcome out = unit(args.seed, &rounds);
        double t = 0;
        for (double r : rounds)
            t += r;
        run_s.push_back(t);
        round_s.insert(round_s.end(), rounds.begin(), rounds.end());
        if (rep == 0) {
            first = out;
        } else {
            deterministic = deterministic && out.digests == first.digests &&
                            out.round_sim_us == first.round_sim_us &&
                            out.sim_json == first.sim_json &&
                            out.audit_clean == first.audit_clean &&
                            out.overflowed == first.overflowed;
        }
        if (!args.traced)
            setup_samples.push_back(setupSample(setup, args.seed));
        if (args.workload == "explore" && !args.traced) {
            const auto batch_start = Clock::now();
            while (secondsSince(batch_start) < kTrialBatchSeconds)
                trial_s.push_back(
                    timeBaselineTrial(scenario, &trial_sim_ticks));
        }
        if (args.traced ||
            (rep + 1 >= min_reps && secondsSince(phase_start) >= args.seconds))
            break;
    }

    // Top the set-up samples up to the minimum count.
    while (!args.traced && setup_samples.size() < kSetupSamples)
        setup_samples.push_back(setupSample(setup, args.seed));

    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);

    Json check;
    check.boolean("audit_clean", first.audit_clean)
        .boolean("overflowed", first.overflowed)
        .boolean("deterministic", deterministic);
    std::string digests = "[";
    for (std::size_t i = 0; i < first.digests.size(); ++i)
        digests += (i ? ", \"" : "\"") + hex(first.digests[i]) + "\"";
    digests += "]";

    doc.list("setup_s", setup_samples)
        .list("run_s", run_s)
        .u64("peak_rss_kb", static_cast<std::uint64_t>(usage.ru_maxrss))
        .u64("ops", first.ops)
        .obj("check", check)
        .raw("digests", digests)
        .raw("sim", first.sim_json);
    if (!first.extra_json.empty())
        doc.raw("per_app", first.extra_json);
    if (!first.round_sim_us.empty())
        doc.list("round_sim_us", first.round_sim_us).list("round_s", round_s);
    if (!trial_s.empty())
        doc.list("baseline_trial_s", trial_s)
            .u64("baseline_trial_sim_ticks", trial_sim_ticks);
    const std::string text = doc.text();
    std::printf("%s\n", text.c_str());
    return 0;
}
