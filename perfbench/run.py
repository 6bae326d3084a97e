#!/usr/bin/env python3
"""The repo benchmark: end-to-end and per-layer numbers for the simulator.

    python3 perfbench/run.py --workload serving --seed 3 --seconds 20 --trace 0

Builds perfbench_driver (the simulator library plus perfbench/driver.cc)
from source into .bench_build/ under the checkout root, runs one
workload, checks its outputs and prints every metric by name. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured on
the Release build. --trace 1 reports the per-layer metrics: counters
read through the library's public accessors, plus host time per layer
from one run of a -pg build of the same driver, whose gprof flat
profile is summed by mach::<module>:: namespace. No end-to-end number
comes from the -pg build.

The benchmark seed selects one of SLOTS recorded input sets (seed mod
SLOTS); perfbench/goldens.json holds, for each workload and slot, the
simulated results the correctness gate demands exactly. `--record`
re-runs every slot and rewrites that file; it refuses a slot whose run
fails the consistency audit, overflows the xpr buffer, is not
deterministic or finds a failing schedule.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
GOLDENS = os.path.join(HERE, "goldens.json")

WORKLOADS = ("serving", "paper-apps", "explore")
SLOTS = 32
TICKS_PER_US = 1000
JOBS = "4"
# A run must end within 180 s of its builds; the driver processes are
# killed past this many seconds.
RUN_LIMIT_S = 165

# Paper values quoted in EXPERIMENTS.md (Tables 2 and 3), in usec.
PAPER_KERNEL_MEAN_US = {"mach_build": 1109, "parthenon": 1395,
                        "agora": 1425, "camelot": 1641}
PAPER_CAMELOT_USER_MEAN_US = 588

# The per-layer metrics (BENCHMARK.json "per_layer"), in report order.
# A metric a workload does not exercise reads 0 there (see README.md).
PER_LAYER = (
    ("sim.events_scheduled", "count", "lower"),
    ("sim.events_per_sim_ms", "1/ms", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.fiber_resumes", "count", "lower"),
    ("sim.fibers_created", "count", "lower"),
    ("sim.self_ms", "ms", "lower"),
    ("kern.spin_quanta", "count", "lower"),
    ("kern.spins_per_respond", "ratio", "lower"),
    ("kern.interrupts_taken", "count", "lower"),
    ("kern.req_compute_sim_us", "us", "lower"),
    ("kern.self_ms", "ms", "lower"),
    ("hw.tlb_hits", "count", "higher"),
    ("hw.tlb_misses", "count", "lower"),
    ("hw.tlb_hit_ratio", "ratio", "higher"),
    ("hw.l0_hit_ratio", "ratio", "higher"),
    ("hw.bus_accesses", "count", "lower"),
    ("hw.tlb_flushes", "count", "lower"),
    ("hw.tlb_invalidates", "count", "lower"),
    ("hw.req_walk_sim_us", "us", "lower"),
    ("hw.self_ms", "ms", "lower"),
    ("vm.faults", "count", "lower"),
    ("vm.faults_failed", "count", "lower"),
    ("vm.zero_fills", "count", "lower"),
    ("vm.cow_copies", "count", "lower"),
    ("vm.req_fault_sim_us", "us", "lower"),
    ("vm.self_ms", "ms", "lower"),
    ("pmap.shootdowns", "count", "lower"),
    ("pmap.ipis", "count", "lower"),
    ("pmap.ipis_per_shootdown", "ratio", "lower"),
    ("pmap.responder_passes", "count", "lower"),
    ("pmap.idle_drains", "count", "lower"),
    ("pmap.queue_overflows", "count", "lower"),
    ("pmap.lazy_avoided", "count", "higher"),
    ("pmap.initiator_mean_sim_us", "us", "lower"),
    ("pmap.responder_mean_sim_us", "us", "lower"),
    ("pmap.req_ipi_post_sim_us", "us", "lower"),
    ("pmap.req_responder_wait_sim_us", "us", "lower"),
    ("pmap.req_drain_sim_us", "us", "lower"),
    ("pmap.self_ms", "ms", "lower"),
    ("obs.self_ms", "ms", "lower"),
    ("chk.trials", "count", "higher"),
    ("chk.coverage_novel", "count", "higher"),
    ("chk.novel_ratio", "ratio", "higher"),
    ("chk.duplicates_skipped", "count", "lower"),
    ("chk.self_ms", "ms", "lower"),
    ("numa.self_ms", "ms", "lower"),
    ("numa.calls", "count", "lower"),
    ("dev.self_ms", "ms", "lower"),
    ("dev.calls", "count", "lower"),
    ("apps.self_ms", "ms", "lower"),
    ("xpr.self_ms", "ms", "lower"),
    ("farm.self_ms", "ms", "lower"),
    ("base.self_ms", "ms", "lower"),
    ("other.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    # Simulated end-to-end results: deterministic, pinned exactly by
    # the correctness gate rather than by a bound.
    ("sim_runtime_ms", "ms", "lower"),
    ("req_mean_sim_us", "us", "lower"),
    ("shootdown_p50_sim_us", "us", "lower"),
    ("shootdown_p99_sim_us", "us", "lower"),
    ("shootdown_samples", "count", "higher"),
    ("coverage_buckets", "count", "higher"),
    ("ops_failed_frac", "frac", "lower"),
)

# gprof namespaces that are layers of the simulator.
MODULES = ("apps", "chk", "dev", "farm", "hw", "kern", "numa", "obs",
           "pmap", "sim", "trace", "vm", "xpr")
MODULE_RE = re.compile(r"^mach::(%s)::" % "|".join(MODULES))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


# ---- Build ---------------------------------------------------------------

def build(tree, extra):
    """Configure (once) and build one tree; returns the driver path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    bdir = os.path.join(BUILD, tree)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = (["cmake", "-S", HERE, "-B", bdir,
                "-DCMAKE_BUILD_TYPE=Release"] + gen + extra)
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed for " + tree)
    cmd = ["cmake", "--build", bdir, "--target", "perfbench_driver",
           "-j", JOBS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed for " + tree)
    return os.path.join(bdir, "perfbench_driver")


def build_release():
    return build("release", [])


def build_traced():
    return build("gprof", ["-DCMAKE_CXX_FLAGS=-pg",
                           "-DCMAKE_EXE_LINKER_FLAGS=-pg -no-pie"])


# ---- Driver --------------------------------------------------------------

def run_driver(binary, workload, slot, seconds, traced=False, cwd=None,
               deadline=None, min_reps=3):
    cmd = [binary, "--workload", workload, "--seed", str(slot)]
    cmd += (["--traced"] if traced else
            ["--seconds", str(seconds), "--min-reps", str(min_reps)])
    timeout = None if deadline is None else max(1, deadline - time.time())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=cwd,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("driver did not finish in time")
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def us(ticks):
    return ticks / TICKS_PER_US


def simulated(doc):
    """The deterministic results the correctness gate pins exactly."""
    sim = doc["sim"]
    if doc["workload"] == "explore":
        c = sim["chk"]
        return {"trials": c["trials"], "coverage_novel": c["coverage_novel"],
                "coverage_buckets": c["buckets"],
                "duplicates_skipped": c["duplicates_skipped"],
                "failures": c["failures"],
                "baseline_digest": doc["digests"][0]}
    c, s = sim["counters"], sim["shootdowns"]
    out = {"digests": doc["digests"],
           "sim_runtime_ms": c["sim_runtime_ticks"] / 1e6,
           "shootdown_p50_sim_us": s["initiator_p50_us"],
           "shootdown_p99_sim_us": s["initiator_p99_us"],
           "shootdown_samples": s["initiator_samples"]}
    if doc["workload"] == "serving":
        r = sim["requests"]
        out["requests"] = r["requests"]
        out["req_mean_sim_us"] = us(r["request_ticks"]) / r["requests"]
    return out


def gate(doc, goldens, slot):
    """Correctness checks; returns the list of failures (empty = pass)."""
    problems = []
    check = doc["check"]
    if not check["audit_clean"]:
        problems.append("TLB consistency audit failed or the explorer "
                        "found a failing schedule")
    if check["overflowed"]:
        problems.append("xpr buffer overflowed")
    if not check["deterministic"]:
        problems.append("repetitions of the unit disagreed")
    want = goldens.get(doc["workload"], {}).get(str(slot))
    got = simulated(doc)
    if want is None:
        problems.append("no recorded result for slot %d" % slot)
    else:
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                problems.append("%s: got %r, recorded %r"
                                % (key, got.get(key), want.get(key)))
    return problems


# ---- Metrics ------------------------------------------------------------------

def sim_us_per_host_ms(doc):
    """Simulated usec advanced per host ms.

    serving: the run's makespan over its median host time. explore:
    the scenario's unperturbed trial, timed alone. paper-apps: the
    median round's makespan over the median round's host time -- a
    round's makespan is heavy-tailed in the seed (a Mach build now and
    then idles for ~10 simulated seconds at little host cost), and
    medians keep that tail out of a speed figure.
    """
    if doc["workload"] == "explore":
        return (us(doc["baseline_trial_sim_ticks"])
                / (statistics.median(doc["baseline_trial_s"]) * 1e3))
    if doc["workload"] == "paper-apps":
        return (statistics.median(doc["round_sim_us"])
                / (statistics.median(doc["round_s"]) * 1e3))
    return (us(doc["sim"]["counters"]["sim_runtime_ticks"])
            / (statistics.median(doc["run_s"]) * 1e3))


def end_to_end(doc):
    run_s = statistics.median(doc["run_s"])
    return {
        "run_s": (run_s, "s"),
        "sim_us_per_host_ms": (sim_us_per_host_ms(doc), "us/ms"),
        "trials_per_s": (doc["ops"] / run_s, "1/s"),
        "setup_s": (statistics.median(doc["setup_s"]), "s"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MB"),
    }


def ratio(a, b):
    return a / b if b else 0.0


def accessor_layers(doc, run_s):
    """Per-layer counters read through public accessors (no gprof)."""
    m = {}
    sim = doc["sim"]
    got = simulated(doc)
    if doc["workload"] == "explore":
        c = sim["chk"]
        attempts = c["trials"] + c["duplicates_skipped"]
        m["chk.trials"] = (c["trials"], "count")
        m["chk.coverage_novel"] = (c["coverage_novel"], "count")
        m["chk.novel_ratio"] = (ratio(c["coverage_novel"], attempts), "ratio")
        m["chk.duplicates_skipped"] = (c["duplicates_skipped"], "count")
        m["coverage_buckets"] = (c["buckets"], "count")
        m["sim_runtime_ms"] = (c["baseline_end_ticks"] / 1e6, "ms")
        return m
    c, s = sim["counters"], sim["shootdowns"]
    sim_ms = c["sim_runtime_ticks"] / 1e6
    tlb = c["tlb_hits"] + c["tlb_misses"]
    l0 = c["l0_hits"] + c["l0_misses"]
    m["sim_runtime_ms"] = (sim_ms, "ms")
    m["shootdown_p50_sim_us"] = (got["shootdown_p50_sim_us"], "us")
    m["shootdown_p99_sim_us"] = (got["shootdown_p99_sim_us"], "us")
    m["shootdown_samples"] = (got["shootdown_samples"], "count")
    m["sim.events_scheduled"] = (c["events_scheduled"], "count")
    m["sim.events_per_sim_ms"] = (ratio(c["events_scheduled"], sim_ms), "1/ms")
    m["sim.host_ns_per_event"] = (ratio(run_s * 1e9, c["events_scheduled"]),
                                  "ns")
    m["kern.interrupts_taken"] = (c["interrupts_taken"], "count")
    m["hw.tlb_hits"] = (c["tlb_hits"], "count")
    m["hw.tlb_misses"] = (c["tlb_misses"], "count")
    m["hw.tlb_hit_ratio"] = (ratio(c["tlb_hits"], tlb), "ratio")
    m["hw.l0_hit_ratio"] = (ratio(c["l0_hits"], l0), "ratio")
    m["hw.bus_accesses"] = (c["bus_accesses"], "count")
    m["hw.tlb_flushes"] = (c["tlb_flushes"], "count")
    m["hw.tlb_invalidates"] = (c["tlb_invalidates"], "count")
    m["vm.faults"] = (c["faults"], "count")
    m["vm.faults_failed"] = (c["faults_failed"], "count")
    m["vm.zero_fills"] = (c["zero_fills"], "count")
    m["vm.cow_copies"] = (c["cow_copies"], "count")
    m["pmap.shootdowns"] = (c["shootdowns"], "count")
    m["pmap.ipis"] = (c["ipis"], "count")
    m["pmap.ipis_per_shootdown"] = (ratio(c["ipis"], c["shootdowns"]),
                                    "ratio")
    m["pmap.responder_passes"] = (c["responder_passes"], "count")
    m["pmap.idle_drains"] = (c["idle_drains"], "count")
    m["pmap.queue_overflows"] = (c["queue_overflows"], "count")
    m["pmap.lazy_avoided"] = (c["lazy_avoided"], "count")
    m["pmap.initiator_mean_sim_us"] = (s["initiator_mean_us"], "us")
    m["pmap.responder_mean_sim_us"] = (s["responder_mean_us"], "us")
    if doc["workload"] == "serving":
        r = sim["requests"]
        n = r["requests"]
        m["req_mean_sim_us"] = (got["req_mean_sim_us"], "us")
        for comp, name in (("compute", "kern.req_compute_sim_us"),
                           ("walk", "hw.req_walk_sim_us"),
                           ("fault", "vm.req_fault_sim_us"),
                           ("ipi_post", "pmap.req_ipi_post_sim_us"),
                           ("responder_wait",
                            "pmap.req_responder_wait_sim_us"),
                           ("drain", "pmap.req_drain_sim_us")):
            m[name] = (us(r[comp]) / n, "us")
    return m


# ---- gprof ----------------------------------------------------------------------

FLAT_RE = re.compile(
    r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)(?:\s+(\d+)\s+[\d.]+\s+[\d.]+)?\s+(.+)$")


def module_of(name):
    m = MODULE_RE.match(name)
    if m:
        return m.group(1)
    return "base" if name.startswith("mach::") else "other"


def parse_flat(text):
    """gprof -b -p: {function: (self_seconds, calls)}."""
    funcs = {}
    for line in text.splitlines():
        m = FLAT_RE.match(line)
        if not m or m.group(5).startswith("name"):
            continue
        name = m.group(5).strip()
        prev = funcs.get(name, (0.0, 0))
        funcs[name] = (prev[0] + float(m.group(3)),
                       prev[1] + int(m.group(4) or 0))
    return funcs


def arc_calls(graph, caller, callee):
    """Calls from @caller to @callee in a gprof -b -q call graph.

    In @callee's block the parent lines precede the primary ("[n]")
    line and read "self children calls/total name"; inside a cycle
    they read just "calls name".
    """
    arc = re.compile(r"\s(\d+)(?:/\d+)?\s+" + re.escape(caller))
    for block in graph.split("-----"):
        lines = block.splitlines()
        primary = [i for i, l in enumerate(lines) if l.startswith("[")]
        if not primary or callee not in lines[primary[0]]:
            continue
        for line in lines[:primary[0]]:
            m = arc.search(line)
            if m:
                return int(m.group(1))
    return 0


def calls_matching(funcs, pattern):
    rx = re.compile(pattern)
    return sum(calls for name, (_, calls) in funcs.items() if rx.search(name))


def traced_layers(traced_bin, workload, slot, deadline):
    """One -pg run: per-module self time and exact call counts."""
    tdir = os.path.join(BUILD, "trace-%s-%d" % (workload, os.getpid()))
    shutil.rmtree(tdir, ignore_errors=True)
    os.makedirs(tdir)
    try:
        doc = run_driver(traced_bin, workload, slot, 0, traced=True,
                         cwd=tdir, deadline=deadline)
        gmon = os.path.join(tdir, "gmon.out")
        if not os.path.exists(gmon):
            fail("the -pg driver wrote no gmon.out")
        flat = subprocess.run(["gprof", "-b", "-p", traced_bin, gmon],
                              stdout=subprocess.PIPE, text=True,
                              check=True).stdout
        graph = subprocess.run(["gprof", "-b", "-q", traced_bin, gmon],
                               stdout=subprocess.PIPE, text=True,
                               check=True).stdout
    finally:
        shutil.rmtree(tdir, ignore_errors=True)
    funcs = parse_flat(flat)
    self_ms = {}
    calls = {}
    for name, (secs, n) in funcs.items():
        mod = module_of(name)
        self_ms[mod] = self_ms.get(mod, 0.0) + secs * 1e3
        calls[mod] = calls.get(mod, 0) + n
    spins = calls_matching(funcs, r"^mach::kern::Cpu::spinOnce\(")
    responds = calls_matching(
        funcs, r"^mach::pmap::ShootdownController::respond\(")
    spins_in_respond = arc_calls(
        graph, "mach::pmap::ShootdownController::respond(",
        "mach::kern::Cpu::spinOnce(")
    m = {
        "sim.fiber_resumes": (calls_matching(
            funcs, r"^mach::sim::Fiber::resume\("), "count"),
        "sim.fibers_created": (calls_matching(
            funcs, r"^mach::sim::Fiber::Fiber\("), "count"),
        "kern.spin_quanta": (spins, "count"),
        "kern.spins_per_respond": (ratio(spins_in_respond, responds),
                                   "ratio"),
        "numa.calls": (calls.get("numa", 0), "count"),
        "dev.calls": (calls.get("dev", 0), "count"),
    }
    for mod in ("sim", "kern", "hw", "vm", "pmap", "obs", "chk", "numa",
                "dev", "apps", "xpr", "farm", "base", "other"):
        m[mod + ".self_ms"] = (self_ms.get(mod, 0.0), "ms")
    return m, doc


# ---- Main -----------------------------------------------------------------------

def load_goldens():
    if not os.path.exists(GOLDENS):
        return {}
    with open(GOLDENS) as f:
        return json.load(f)


def model_error(doc):
    """Informational: paper-apps' shootdown means against the paper."""
    lines = []
    for app, paper in PAPER_KERNEL_MEAN_US.items():
        got = doc["per_app"][app]["kernel_mean_us"]
        lines.append("  table2 %-10s kernel initiator mean %8.1f us, "
                     "paper %5d us, error %+6.1f%%"
                     % (app, got, paper, (got / paper - 1) * 100))
    got = doc["per_app"]["camelot"]["user_mean_us"]
    lines.append("  table3 camelot    user initiator mean   %8.1f us, "
                 "paper %5d us, error %+6.1f%%"
                 % (got, PAPER_CAMELOT_USER_MEAN_US,
                    (got / PAPER_CAMELOT_USER_MEAN_US - 1) * 100))
    for app in PAPER_KERNEL_MEAN_US:
        a = doc["per_app"][app]
        lines.append("  table4 %-10s initiator mean %8.1f us > responder "
                     "mean %8.1f us: %s"
                     % (app, a["kernel_mean_us"], a["responder_mean_us"],
                        a["kernel_mean_us"] > a["responder_mean_us"]))
    return lines


def record():
    release = build_release()
    goldens = load_goldens()
    for workload in WORKLOADS:
        goldens[workload] = {}
        for slot in range(SLOTS):
            doc = run_driver(release, workload, slot, 0, min_reps=2)
            check = doc["check"]
            if (not check["audit_clean"] or check["overflowed"]
                    or not check["deterministic"]):
                fail("%s slot %d fails its checks: %r"
                     % (workload, slot, check))
            goldens[workload][str(slot)] = simulated(doc)
            log("recorded %s slot %d" % (workload, slot))
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record perfbench/goldens.json for every slot")
    args = ap.parse_args()
    if args.record:
        record()
        return
    if args.workload is None:
        ap.error("--workload is required")

    slot = args.seed % SLOTS
    # Both trees are built up front, so the first run of a checkout
    # pays for every build and later runs only check they are current.
    release = build_release()
    traced = build_traced()
    deadline = time.time() + RUN_LIMIT_S
    # The measured phase leaves room for the set-up samples, the
    # calibration and (traced) the -pg run.
    budget = max(1.0, min(args.seconds, RUN_LIMIT_S - 60))
    goldens = load_goldens()

    if args.trace:
        # Untraced reps for the baseline of the overhead ratio and the
        # accessor counters, then one gprof-traced rep.
        doc = run_driver(release, args.workload, slot, budget / 2,
                         deadline=deadline)
        run_s = statistics.median(doc["run_s"])
        metrics = accessor_layers(doc, run_s)
        layers, traced_doc = traced_layers(traced, args.workload, slot,
                                           deadline)
        metrics.update(layers)
        traced_s = traced_doc["run_s"][0]
        metrics["trace.overhead_frac"] = (traced_s / run_s - 1, "frac")
        problems = gate(doc, goldens, slot)
        if simulated(traced_doc) != simulated(doc):
            problems.append("the -pg build simulated a different run")
    else:
        doc = run_driver(release, args.workload, slot, budget,
                         deadline=deadline)
        metrics = end_to_end(doc)
        problems = gate(doc, goldens, slot)

    attempted = max(1, doc["ops"])
    failed = attempted if problems else 0
    if args.trace:
        metrics["ops_failed_frac"] = (failed / attempted, "frac")
        metrics = {name: metrics.get(name, (0, unit))
                   for name, unit, _ in PER_LAYER}

    # Human-readable report: every metric by name with its unit, the
    # host calibration stamp and (paper-apps) the model's error.
    print("perfbench: %s seed %d (slot %d), %s, %d rep(s)"
          % (args.workload, args.seed, slot,
             "traced per-layer run" if args.trace else "end-to-end run",
             len(doc["run_s"])))
    if "calibration" in doc:
        cal = doc["calibration"]
        print("host: nproc %d, %s, alu loop %.1f ms, memset loop %.1f ms "
              "(information only)" % (cal["nproc"], cal["cpu_model"],
                                     cal["alu_loop_ms"],
                                     cal["memset_loop_ms"]))
    for name, (value, unit) in metrics.items():
        print("  %-34s %16.6g %s" % (name, value, unit))
    print("simulated results (pinned exactly by the gate):")
    for name, value in simulated(doc).items():
        if name != "digests":
            print("  %-34s %16s" % (name, value))
    if args.workload == "paper-apps":
        print("model error against the paper (information only):")
        print("\n".join(model_error(doc)))
    for p in problems:
        print("CHECK FAILED: " + p)
    print("correctness gate: %s" % ("FAILED" if problems else "passed"))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
