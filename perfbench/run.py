#!/usr/bin/env python3
"""Real-clock benchmark: LeNet SGD training, transformer Adam training and
LeNet serving, through the public APIs of the s4o libraries.

Run from the repository root:

    python3 perfbench/run.py --workload lenet-sgd --seed 1 --seconds 20 --trace 0

The script builds perfbench/main.exe with dune, then runs episodes of the
workload, each in a fresh process, for about --seconds. An episode
sets up (data, weights, first compile or first serving session), runs a
fixed number of timed steps or sessions, and checks its outputs. Episodes
run with the domain pool pinned to one domain (S4O_DOMAINS=1).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced episodes and prints the per-layer metrics, the tracing overhead and,
for lenet-sgd, the pool at its default width. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")

# Timed steps (training) or sessions (serving) per episode, and requests per
# serving session. Episodes repeat for about --seconds, and at least
# MIN_EPISODES times, so setup_s and peak_rss_mb are medians over episodes.
WORKLOADS = {
    "lenet-sgd": {"steps": 24, "requests": 1, "training": True},
    "transformer-adam": {"steps": 100, "requests": 1, "training": True},
    "serve-lenet": {"steps": 30, "requests": 20000, "training": False},
}
# Throughput is one measurement: examples per second on training, requests
# (one example each) per second on serving. Its name for each workload is
# printed; the JSON carries it under both names on every workload, because
# every end-to-end metric of BENCHMARK.json must appear in every result.
RATE = {"lenet-sgd": "samples_per_s", "transformer-adam": "samples_per_s",
        "serve-lenet": "requests_per_s"}
MIN_EPISODES = 3
# step_ms_p90 needs at least ten timed steps beyond it.
MIN_STEPS = 110
# Every run must end well inside this many seconds.
HARD_DEADLINE_S = 170.0

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONTRACT = json.load(f)
END_TO_END = [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]]


class BenchError(Exception):
    pass


def build():
    """Build the episode runner from source; dune's shared cache stays off so
    nothing is written outside the checkout. Where only opam is on PATH
    (a shell that has not run `eval $(opam env)`), dune runs through it."""
    if shutil.which("dune"):
        cmd = ["dune"]
    elif shutil.which("opam"):
        cmd = ["opam", "exec", "--", "dune"]
    else:
        raise BenchError("dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        cmd + ["build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        raise BenchError("build failed")


def source_digest():
    """A digest of the library and benchmark sources, to tell builds apart
    where no git commit is available."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def child_env(pinned):
    env = dict(os.environ)
    if pinned:
        env["S4O_DOMAINS"] = "1"
    else:
        env.pop("S4O_DOMAINS", None)
    return env


def run_child(args, deadline, pinned=True):
    """Run main.exe with [args]; returns (last stdout line, start time, peak
    RSS in MB). The child is killed at [deadline] and always waited for."""
    timeout = deadline - time.time()
    if timeout <= 0:
        raise BenchError("out of time")
    start = time.time()
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True,
                         env=child_env(pinned), cwd=ROOT)
    killer = threading.Timer(timeout, p.kill)
    killer.start()
    try:
        out = p.stdout.read()
    finally:
        _, status, usage = os.wait4(p.pid, 0)
        killer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError("main.exe %s exited with %d" % (args[0], p.returncode))
    return lines[-1], start, usage.ru_maxrss * 1024 / 1e6


def episode(workload, seed, expected, deadline, traced=False, pinned=True):
    w = WORKLOADS[workload]
    args = ["episode", "--workload", workload, "--seed", str(seed),
            "--steps", str(w["steps"]), "--requests", str(w["requests"])]
    if expected:
        args += ["--expect", expected]
    if traced:
        args.append("--traced")
    line, start, rss_mb = run_child(args, deadline, pinned)
    e = json.loads(line)
    e["setup_s"] = e["setup_done"] - start
    e["rss_mb"] = rss_mb
    return e


def per_second(episodes):
    seconds = sum(sum(e["step_ms"]) for e in episodes) / 1e3
    return sum(e["items"] for e in episodes) / seconds


def end_to_end(episodes):
    steps = [ms for e in episodes for ms in e["step_ms"]]
    rate = per_second(episodes)
    return {
        "samples_per_s": rate,
        "requests_per_s": rate,
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": statistics.quantiles(steps, n=10, method="inclusive")[8],
        "setup_s": statistics.median(e["setup_s"] for e in episodes),
        "peak_rss_mb": statistics.median(e["rss_mb"] for e in episodes),
    }


def median_layers(episodes):
    keys = {k for e in episodes for k in e["layers"]}
    return {k: statistics.median(e["layers"][k] for e in episodes
                                 if k in e["layers"])
            for k in keys}


def repeat(start, seconds, deadline, make, enough):
    """Call [make] until [enough] holds of the results and another call would
    end past [seconds] after [start]."""
    runs = []
    while True:
        t = time.time()
        runs.append(make())
        now = time.time()
        late = now >= deadline - 15
        if enough(runs) and (late or now + (now - t) > start + seconds):
            return runs
        if late:
            raise BenchError("too few episodes before the deadline")


def untraced(a, start, deadline, expected):
    eps = repeat(
        start, a.seconds, deadline,
        lambda: episode(a.workload, a.seed, expected, deadline),
        lambda eps: len(eps) >= MIN_EPISODES
        and sum(len(e["step_ms"]) for e in eps) >= MIN_STEPS)
    gc = median_layers(eps)
    extra = [(k, gc[k], "words" if "words" in k else "count")
             for k in sorted(gc) if k.startswith("gc.")]
    return eps, end_to_end(eps), extra


def traced(a, start, deadline, expected):
    """Alternate untraced and traced episodes; for lenet-sgd, add one
    episode at the pool's default width."""
    pairs = repeat(
        start, a.seconds, deadline,
        lambda: (episode(a.workload, a.seed, expected, deadline),
                 episode(a.workload, a.seed, expected, deadline,
                         traced=True)),
        lambda pairs: True)
    plain = [p[0] for p in pairs]
    timed = [p[1] for p in pairs]
    eps = plain + timed
    metrics = {k: 0.0 for k, _ in PER_LAYER}
    metrics.update((k, v) for k, v in median_layers(timed).items()
                   if not k.startswith(("gc.", "pool.")))
    # reading the GC counters costs nothing, so take them untraced
    metrics.update((k, v) for k, v in median_layers(plain).items()
                   if k.startswith("gc."))
    untraced_rate = per_second(plain)
    traced_rate = per_second(timed)
    metrics["trace.overhead_pct"] = (
        100.0 * (untraced_rate - traced_rate) / untraced_rate)
    extra = [("trace.untraced_per_s", untraced_rate, "1/s"),
             ("trace.traced_per_s", traced_rate, "1/s"),
             ("trace.traced_minus_untraced_per_s",
              traced_rate - untraced_rate, "1/s")]
    if a.workload == "lenet-sgd":
        load = os.getloadavg()[0]
        wide = episode(a.workload, a.seed, expected, deadline, pinned=False)
        eps.append(wide)
        metrics.update((k, v) for k, v in wide["layers"].items()
                       if k.startswith("pool."))
        metrics["pool.speedup"] = (
            statistics.median(ms for e in plain for ms in e["step_ms"])
            / statistics.median(wide["step_ms"]))
        metrics["pool.loadavg"] = load
        extra.append(("pool.default_width", wide["layers"]["pool.width"],
                      "count"))
    return eps, metrics, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=CONTRACT["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    t0 = time.time()
    deadline = t0 + HARD_DEADLINE_S
    try:
        build()
        info = json.loads(run_child(["info"], deadline)[0])
        print("# perfbench workload=%s seed=%d trace=%d seconds=%g"
              % (a.workload, a.seed, a.trace, a.seconds))
        print("# nproc=%d loadavg=%s ocaml=%s pool_width=%d commit=%s "
              "source=%s" % (os.cpu_count(), "/".join(
                  "%.2f" % x for x in os.getloadavg()), info["ocaml"],
                  int(info["pool_width"]), git_commit(), source_digest()))
        sys.stdout.flush()
        # Deadlines for episodes are measured from the build's end, so a
        # first build does not eat the measured time.
        start = time.time()
        deadline = start + HARD_DEADLINE_S
        expected = None
        if WORKLOADS[a.workload]["training"]:
            expected = run_child(
                ["reference", "--workload", a.workload, "--seed", str(a.seed),
                 "--steps", str(WORKLOADS[a.workload]["steps"])], deadline)[0]
        measure = traced if a.trace else untraced
        eps, metrics, extra = measure(a, start, deadline, expected)
        units = PER_LAYER if a.trace else END_TO_END
        attempted = sum(e["attempted"] for e in eps)
        failed = sum(e["failed"] for e in eps)
        print("# episodes=%d timed_steps=%d wall_s=%.1f"
              % (len(eps), sum(len(e["step_ms"]) for e in eps),
                 time.time() - t0))
        for k, u in units:
            if k in RATE.values() and k != RATE[a.workload]:
                continue
            print("%-32s %14.6g %s" % (k, metrics[k], u))
        for k, v, u in extra:
            print("%-32s %14.6g %s" % (k, v, u))
        print("%-32s %14.6g %s" % ("error_rate", failed / max(1, attempted),
                                   "ratio"))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units},
        }))
    except BenchError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
