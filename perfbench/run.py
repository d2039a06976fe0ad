#!/usr/bin/env python3
"""Entry point of the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from source (cargo, offline), runs the
workload in a child process and prints, as the last line of standard
output, one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` they are its per-layer metrics, taken from
a traced child run beside an untraced one (their difference is the tracing
overhead). Lines before the last carry the host context and the exact
counters. Exits 1 on a wrong answer, a failed build or a child that dies.

The host line also says how busy the host was while the untraced child
ran: the share of all CPU time the hypervisor stole and the share the
host spent busy, from /proc/stat, and the child's own CPU and wall
seconds. A set of runs made while the host was stolen from can be
recognised by it and re-run, instead of being read as a regression.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")
# Every child together must end well inside the 180 s a run may take
# (a first run in a fresh checkout also builds; the build is not counted).
BUDGET_S = 170.0


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the binary; returns the path of the executable."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST,
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        die(f"build failed with code {proc.returncode}")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "perfbench":
                exe = msg["executable"]
    if exe is None:
        die("cargo reported no perfbench executable")
    return exe


def cpu_ticks():
    """(total, steal, idle) ticks of the host's aggregate CPU line in
    /proc/stat, or None where there is none. Guest time is already
    counted in user and nice, so it is left out of the total."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    # user nice system idle iowait irq softirq steal
    ticks = [int(x) for x in fields[1:9]]
    return sum(ticks), ticks[7], ticks[3] + ticks[4]


def host_load(before, after, usage, wall_s):
    """What the host did while one child ran (see the module docs)."""
    load = {
        "child_cpu_s": usage.ru_utime + usage.ru_stime,
        "child_wall_s": wall_s,
    }
    if before is not None and after is not None and after[0] > before[0]:
        total = after[0] - before[0]
        load["steal_share"] = (after[1] - before[1]) / total
        load["busy_share"] = 1.0 - (after[1] - before[1] + after[2] - before[2]) / total
    return load


def child(args, deadline):
    """Runs the binary to completion; returns (report, peak RSS in MiB,
    resource usage, wall seconds).

    The child's last stdout line is its JSON report. Exit code 1 means a
    wrong answer (the report says which); any other failure aborts.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        die("out of time before " + " ".join(args[1:2]))
    start = time.monotonic()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall_s = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die(f"{' '.join(args[1:])} exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    if proc.returncode == 1 and report.get("correct", False):
        die(f"{' '.join(args[1:])} exited 1 without a failed check")
    # ru_maxrss is in KiB on Linux.
    return report, usage.ru_maxrss / 1024.0, usage, wall_s


def value(report, name):
    m = report["metrics"].get(name)
    if m is None:
        die(f"{report['workload']} ({report['mode']}) did not report {name}")
    return m["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not os.path.exists(SPEC):
        die("BENCHMARK.json not found next to the benchmark directory")
    with open(SPEC) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {a.workload}")
    exe = build()
    deadline = time.monotonic() + BUDGET_S

    run = [exe, a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    before = cpu_ticks()
    plain, plain_rss, usage, wall_s = child(run, deadline)
    after = cpu_ticks()
    plain["metrics"]["peak_rss_mb"] = {"value": plain_rss, "unit": "MB"}
    host = child([exe, "host"], deadline)[0]
    context = {k: m["value"] for k, m in host["metrics"].items()}
    context.update(host_load(before, after, usage, wall_s))
    print("host " + json.dumps(context))
    print("counts " + json.dumps(plain["counts"]))
    correct = plain["correct"]
    if not correct:
        print("error " + plain.get("error", "?"))

    if a.trace == 0:
        final, metrics = plain, {}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": value(plain, m["name"]), "unit": m["unit"]}
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"{a.workload}.spans.csv")
        traced, traced_rss, _, _ = child(run + ["--trace", "--spans", spans], deadline)
        traced["metrics"]["peak_rss_mb"] = {"value": traced_rss, "unit": "MB"}
        if traced["counts"] != plain["counts"]:
            correct = False
            print("error traced counts " + json.dumps(traced["counts"]) + " differ from untraced")
        if not traced["correct"]:
            correct = False
            print("error " + traced.get("error", "?"))
        final, metrics = traced, {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name.startswith("overhead."):
                base = name[len("overhead."):]
                v = value(traced, base) - value(plain, base)
            elif name.startswith("host."):
                v = value(host, name)
            else:
                # A layer the workload does not reach reports nothing.
                v = traced["metrics"].get(name, {"value": 0})["value"]
            metrics[name] = {"value": v, "unit": m["unit"]}
        print(f"spans {spans}")

    result = {
        "correct": bool(correct),
        "attempted": int(final["attempted"]),
        "failed": int(final["failed"]),
        "metrics": metrics,
    }
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    extra = {k: m["value"] for k, m in final["metrics"].items() if k not in declared}
    print("detail " + json.dumps(extra))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
