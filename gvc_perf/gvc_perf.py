#!/usr/bin/env python3
"""gvc_perf: host-speed benchmark of the gvc simulator.

Builds the simulator and the one-pass program (gvc_perf_pass) from this
checkout into build-perf/, then runs closed batch passes of the named
workloads, each pass in a child process of its own, and reports every
end-to-end metric as a median with its quartiles and sample count.

    python3 gvc_perf/gvc_perf.py [--workload NAME|all] [--seed N]
                                 [--seconds S] [--trace 0|1]
                                 [--trace-out FILE] [--out FILE]
    python3 gvc_perf/gvc_perf.py --compare A.json B.json
    python3 gvc_perf/gvc_perf.py --smoke

Each workload gets one warm-up pass, then timed passes until at least
five have run and --seconds have passed.  With --trace 1, timed passes
alternate between plain and traced; the traced ones give the per-layer
metrics (see README.md) and, with --trace-out, a Chrome trace.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit status is nonzero when any check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, "build-perf")
PASS_EXE = os.path.join(BUILD_DIR, "gvc_perf_pass")
GOLDEN_FILE = os.path.join(ROOT, "tests", "golden_stats.txt")

DEFAULT_SEED = 0x5EED  # WorkloadParams' default seed
WARMUP_PASSES = 1
MIN_TIMED_PASSES = 5
PASS_TIMEOUT_S = 120
# One sweep worker: on a few shared cores, parallel cells time the host's
# scheduler more than the simulator.  --smoke still runs the sweep on two.
SWEEP_JOBS = 1

# BENCHMARK.json names the workloads and every metric with its unit and
# direction; an end-to-end metric's bound is the share of the base run's
# median by which it may worsen before --compare calls it worse.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in _BENCH["workloads"]]
END_TO_END = {m["name"]: m for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m for m in _BENCH["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_jobs():
    return min(4, nproc())


def run_logged(cmd):
    """Run a build step; its output goes to stderr only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        log("gvc_perf: build step failed: " + " ".join(cmd))
        sys.exit(2)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                "-DCMAKE_BUILD_TYPE=Release"] + generator)
    run_logged(["cmake", "--build", BUILD_DIR, "-j", str(build_jobs())])


def run_child(cmd):
    """Run @p cmd; return (exit code, JSON lines of stdout, rusage)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = []
    for line in out.decode(errors="replace").splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            pass
    return proc.returncode, lines, usage


def run_pass(workload, opts, traced):
    """One pass in a child process; a dead child fails all its checks."""
    tmp = os.path.join(BUILD_DIR, "tmp", workload)
    os.makedirs(tmp, exist_ok=True)
    cmd = [PASS_EXE, "--workload", workload, "--seed", str(opts.seed),
           "--jobs", str(opts.jobs), "--tmp", tmp]
    if opts.scale:
        cmd += ["--scale", repr(opts.scale)]
    if traced:
        cmd.append("--traced")
    try:
        code, lines, usage = run_child(cmd)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    planned = lines[0].get("planned_checks", 1) if lines else 1
    if code != 0 or len(lines) < 2:
        return {"ok": False, "attempted": planned, "failed": planned,
                "failures": [f"{workload} pass exited with status {code}"]}
    result = lines[-1]
    result["ok"] = True
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def run_golden():
    code, lines, _ = run_child([PASS_EXE, "--golden", GOLDEN_FILE])
    if code != 0 or not lines:
        return {"attempted": 1, "failed": 1,
                "failures": [f"golden grid exited with status {code}"]}
    return lines[-1]


def summarize(values):
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(result):
    return {
        "setup_s": result["setup_s"],
        "wall_s": result["wall_s"],
        "winst_per_s": result["winst"] / result["sim_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def measure_workload(workload, opts):
    warm = [run_pass(workload, opts, False) for _ in range(opts.warmup)]
    timed = []
    start = time.monotonic()
    while len(timed) < opts.trials or time.monotonic() - start < opts.seconds:
        traced = opts.trace and len(timed) % 2 == 1
        timed.append((traced, run_pass(workload, opts, traced)))

    passes = warm + [r for _, r in timed]
    attempted = sum(r["attempted"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    # Simulated counters are deterministic: every pass must agree.
    digests = [r["digest"] for r in passes if r["ok"]]
    for d in digests[1:]:
        attempted += 1
        if d != digests[0]:
            failures.append(f"{workload}: simulated counters differ "
                            "between passes")

    plain = [r for traced, r in timed if r["ok"] and not traced]
    traced = [r for is_traced, r in timed if r["ok"] and is_traced]
    e2e = {}
    if plain:
        samples = [end_to_end(r) for r in plain]
        for name, spec in END_TO_END.items():
            values = [s[name] for s in samples if name in s]
            if values:
                e2e[name] = dict(summarize(values), unit=spec["unit"],
                                 better=spec["better"], bound=spec["bound"],
                                 samples=values)
    layers = {}
    if traced:
        if plain:
            for r in traced:
                r["layers"]["trace.overhead_frac"] = (
                    r["wall_s"] /
                    statistics.median(p["wall_s"] for p in plain) - 1.0)
        for name, spec in PER_LAYER.items():
            values = [r["layers"][name] for r in traced
                      if name in r["layers"]]
            if values:
                layers[name] = dict(summarize(values), unit=spec["unit"])
    return {
        "passes": len(passes),
        "warmup": len(warm),
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
        "end_to_end": e2e,
        "per_layer": layers,
        "spans": [r["spans"] for r in traced],
    }


def log_workload(name, w):
    log(f"gvc_perf {name}: {w['passes']} passes ({w['warmup']} warm-up), "
        f"{w['failed']}/{w['attempted']} checks failed")
    for f in w["failures"]:
        log(f"  FAILED {f}")
    for metrics in (w["end_to_end"], w["per_layer"]):
        for m, s in metrics.items():
            log(f"  {m:<28} {s['median']:>14.6g} {s['unit']:<10} "
                f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")


def write_chrome_trace(path, workloads):
    """Traced passes as Chrome trace-event JSON (Perfetto opens it)."""
    events = []
    pid = 0
    for name, w in workloads.items():
        for k, spans in enumerate(w["spans"]):
            pid += 1
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0,
                           "args": {"name": f"{name} traced pass {k + 1}"}})
            for s in spans:
                events.append({"name": s["name"],
                               "cat": s["name"].split(".")[0], "ph": "X",
                               "ts": s["ts_us"], "dur": s["dur_us"],
                               "pid": pid, "tid": 0,
                               "args": {"detail": s["detail"], "pass": pid}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def measure(workloads, opts):
    report = {"tool": "gvc_perf", "seed": opts.seed, "nproc": nproc(),
              "jobs": opts.jobs, "trials": opts.trials,
              "warmup": opts.warmup, "seconds": opts.seconds,
              "traced": bool(opts.trace), "scale": opts.scale or None,
              "workloads": {}}
    if opts.golden:
        report["golden"] = run_golden()
        for f in report["golden"]["failures"]:
            log(f"  FAILED {f}")
    for name in workloads:
        w = measure_workload(name, opts)
        log_workload(name, w)
        report["workloads"][name] = w
    return report


def result_line(report, trace):
    """The final stdout line: overall checks and each metric's median."""
    golden = report.get("golden", {"attempted": 0, "failed": 0})
    attempted = golden["attempted"]
    failed = golden["failed"]
    metrics = {}
    many = len(report["workloads"]) > 1
    for name, w in report["workloads"].items():
        attempted += w["attempted"]
        failed += w["failed"]
        wanted = PER_LAYER if trace else END_TO_END
        source = w["per_layer"] if trace else w["end_to_end"]
        for m in wanted:
            if m not in source:
                failed += 1
                attempted += 1
                continue
            key = f"{name}.{m}" if many else m
            metrics[key] = {"value": source[m]["median"],
                            "unit": source[m]["unit"]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def verdict(a, b):
    """better / worse / unchanged / unresolved for B against base A."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    bound = a["bound"]
    worse = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((a["q3"] - a["q1"]) / a["median"],
                 (b["q3"] - b["q1"]) / b["median"])
    b_wins_all = all(sign * (y - x) < 0
                     for x in a["samples"] for y in b["samples"])
    if b_wins_all and -worse > spread:
        return "better"
    if spread > bound:
        return "unresolved"
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "unchanged"


def compare_reports(a, b):
    """Rows of (workload, metric, A, B, verdict); fail_frac rows too."""
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            rows.append((name, "(workload)", None, None, "missing"))
            continue
        for m, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"].get(m)
            rows.append((name, m, sa, sb,
                         verdict(sa, sb) if sb else "missing"))
        rose = wb["fail_frac"] > wa["fail_frac"]
        rows.append((name, "fail_frac", wa["fail_frac"], wb["fail_frac"],
                     "worse" if rose else "unchanged"))
    return rows


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    bad = False
    print(f"{'workload':<15} {'metric':<12} {'A median [q1, q3]':<40} "
          f"{'B median [q1, q3]':<40} {'bound':>6}  verdict")
    for name, m, sa, sb, v in compare_reports(a, b):
        bad = bad or v in ("worse", "missing")
        if isinstance(sa, dict):
            cells = [f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
                     f"n={s['n']}" if s else "-" for s in (sa, sb)]
            bound = f"{sa['bound']:.0%}"
        else:
            cells = ["-" if x is None else f"{x:.4g}" for x in (sa, sb)]
            bound = "0"
        print(f"{name:<15} {m:<12} {cells[0]:<40} {cells[1]:<40} "
              f"{bound:>6}  {v}")
    return 1 if bad else 0


def smoke():
    """Every workload tiny, once plain and once traced, then self-checks."""
    opts = argparse.Namespace(seed=DEFAULT_SEED, seconds=0, trials=2,
                              warmup=0, trace=True, jobs=min(2, nproc()),
                              scale=0.05, golden=False)
    report = measure(WORKLOADS, opts)
    problems = []
    for name, w in report["workloads"].items():
        if w["fail_frac"] != 0:
            problems.append(f"{name}: fail_frac {w['fail_frac']}")
        for kind, specs in (("end_to_end", END_TO_END),
                            ("per_layer", PER_LAYER)):
            problems += [f"{name}: no {m}" for m in specs if m not in w[kind]]
    for name, m, _, _, v in compare_reports(report, report):
        if v != "unchanged":
            problems.append(f"self-compare {name} {m}: {v}")
    for p in problems:
        log(f"gvc_perf smoke: FAILED {p}")
    log(f"gvc_perf smoke: {'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep running timed passes for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: alternate traced passes, report per-layer")
    ap.add_argument("--trace-out", metavar="FILE",
                    help="write traced passes' spans as a Chrome trace")
    ap.add_argument("--out", metavar="FILE",
                    help="write the full report (input to --compare)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    build()
    if args.smoke:
        return smoke()

    opts = argparse.Namespace(seed=args.seed, seconds=args.seconds,
                              trials=MIN_TIMED_PASSES,
                              warmup=WARMUP_PASSES, trace=bool(args.trace),
                              jobs=SWEEP_JOBS, scale=None, golden=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    report = measure(workloads, opts)
    if args.trace_out:
        write_chrome_trace(args.trace_out, report["workloads"])
    for w in report["workloads"].values():
        del w["spans"]
    line = result_line(report, args.trace)
    report["result"] = line
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
