"""Measurement loop, set-up probes, host facts and metric assembly for
run.py, which puts ./src and this directory on sys.path before importing
this module."""

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

from polydisc.errors import PolydiscError
from tracer import Tracer
from workloads import WIDE_POINTS, WORKLOADS, warm_up

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 11
SETUP_CAL_NS = 50_000_000  # calibration kernel time before and after each set-up probe
WALL_FACTOR = 4  # a loop also ends after WALL_FACTOR * --seconds of wall time
CAL_SHARE = 0.1  # calibration kernel time per unit of timed-call time
WINDOW_NS = 1_000_000_000  # call time per host-speed window
REF_RATE = 16_000.0  # calibration kernel runs per second on the reference host

SPANS = (
    "mobius.d_norm", "mobius.sup_on_torus",
    "clinalg.op_norm", "clinalg.herm_eig", "clinalg.herm_sqrt",
    "clinalg.matricial_mobius", "clinalg.takagi",
    "membership.in_tilde_g_all", "membership.in_tilde_gamma_all",
    "membership.in_tilde_g_c7", "membership.in_tilde_gamma_c7",
    "membership.in_g", "membership.in_gamma", "membership.in_b_gamma",
    "membership.symmetrize", "membership.report_json",
    "membership.costara_sup", "membership.nonvanishing_falsifier",
    "schwarz.check_condition", "schwarz.schur_certificates",
    "interpolation.build_interpolant", "interpolation.disc_eval",
    "interpolation.extremal_disc", "interpolation.disc_json",
    "distances.distance_report", "distances.carath_lower",
    "geometry.separating_polynomial",
    "sampling.draw",
    "cli.oracle", "cli.plot_slice",
)


def tail(lat_ns: list[int]) -> tuple[float, float]:
    """(q, latency): q = 0.99, or the highest percentile that still has at
    least ten samples beyond it; nearest-rank value."""
    xs = sorted(lat_ns)
    n = len(xs)
    q = min(0.99, (n - 10) / n) if n > 20 else 0.5
    return q, float(xs[math.ceil(q * n - 1e-9) - 1])


def calibration_kernel() -> int:
    """Fixed integer-only Python work that shares no code with polydisc, so
    only the host's speed moves its time.  It has no float arithmetic on
    purpose: after BLAS calls, this process's scalar float code can run up
    to 2x slower, and a float kernel would cancel that slowdown out of the
    program's timings."""
    x = 12345
    acc = 0
    seen: dict[int, int] = {}
    for k in range(150):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc ^= x >> (k & 7)
        seen[x & 63] = acc
    return acc + len(seen)


def run_kernel(ns: float) -> tuple[int, int]:
    """(runs, elapsed ns) of calibration_kernel run back to back for `ns`."""
    runs = 0
    t0 = time.perf_counter_ns()
    while (t := time.perf_counter_ns() - t0) < ns:
        calibration_kernel()
        runs += 1
    return runs, t


def measure(wl, tracers, seed: int, seconds: float, between=None, n_between: int = 0) -> list[dict]:
    """Closed loop over the workload's inputs until the timed calls sum to
    `seconds`; checks each output after its call.  `between()` runs
    `n_between` times, untimed, at evenly spaced points of the timed-call
    time (what is left runs after the loop).  An item is done when
    its call returned and its output passed the check; every other item
    failed, and any failure makes the run incorrect.  Call i runs under
    tracers[i % len(tracers)], and each tracer gets its own tallies, so a
    traced and an untraced loop interleave over the same span of time.

    After each call the loop runs calibration_kernel until the kernel has
    had CAL_SHARE of the timed-call time.  Every WINDOW_NS of call time, the
    window's calls are scaled to reference-host time by the factor
    (kernel runs per second in the window) / REF_RATE: the host's speed
    drifts by tens of percent over tens of seconds, and the kernel, timed
    alongside the calls, moves with it."""
    gen = wl.inputs(np.random.default_rng(seed))
    speeds: list[float] = []  # kernel runs per second, one per window
    stats = [
        {"lat": [], "raw_lat": [], "busy_ns": 0.0, "raw_busy_ns": 0, "items": 0,
         "done": 0, "failed": 0, "tags": Counter(), "speeds": speeds}
        for _ in tracers
    ]
    budget = seconds * 1e9
    busy = 0
    wall_end = time.monotonic() + WALL_FACTOR * seconds
    span = f"item.{wl.name}"
    window: list[tuple[dict, int]] = []
    win_ns = cal_ns = cal_runs = 0

    def close_window():
        speed = cal_runs / (cal_ns / 1e9)
        for st, dt in window:
            st["lat"].append(dt * speed / REF_RATE)
            st["busy_ns"] += dt * speed / REF_RATE
        speeds.append(speed)
        window.clear()

    between_at = [budget * (k + 0.5) / n_between for k in range(n_between)]
    i = 0
    while busy < budget and time.monotonic() < wall_end:
        if between_at and busy >= between_at[0]:
            between_at.pop(0)
            between()
        tr, st = tracers[i % len(tracers)], stats[i % len(tracers)]
        inp = next(gen)
        tr.begin_item(i)
        i += 1
        err = None
        t0 = time.perf_counter_ns()
        try:
            out = tr.call(span, wl.run, tr, inp)
        except Exception as exc:  # recorded by type, the run goes on
            err = exc
        dt = time.perf_counter_ns() - t0
        busy += dt
        win_ns += dt
        window.append((st, dt))
        st["raw_lat"].append(dt)
        st["raw_busy_ns"] += dt
        if cal_ns < CAL_SHARE * win_ns:
            runs, ns = run_kernel(CAL_SHARE * win_ns - cal_ns)
            cal_runs += runs
            cal_ns += ns
        if win_ns >= WINDOW_NS:
            close_window()
            win_ns = cal_ns = cal_runs = 0
        k = wl.items(inp)
        st["items"] += k
        if err is None:
            try:
                t = wl.check(tr, inp, out)
            except Exception as exc:  # a malformed output fails its check
                t = [f"check:error:{type(exc).__name__}"]
        elif isinstance(err, PolydiscError):
            # every input is drawn to be valid, so a refusal is a failure
            t = [f"check:refused:{type(err).__name__}"]
        else:
            t = [type(err).__name__]
        if t:
            st["failed"] += k
            st["tags"].update(set(t))
        else:
            st["done"] += k
    if window:
        close_window()
    for _ in between_at:
        between()
    return stats


def setup_probe(name: str, scaled: list[float], raw: list[float]) -> None:
    """Wall time of a fresh interpreter running probe.py for this workload,
    appended to `scaled` (in reference seconds, scaled by the calibration
    kernel's speed over SETUP_CAL_NS before and after it) and `raw`."""
    runs, cal_ns = run_kernel(SETUP_CAL_NS)
    t0 = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), name],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=60, check=False,
    )
    dt = (time.perf_counter_ns() - t0) / 1e9
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
    after = run_kernel(SETUP_CAL_NS)
    speed = (runs + after[0]) / ((cal_ns + after[1]) / 1e9)
    scaled.append(dt * speed / REF_RATE)
    raw.append(dt)


def host_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "seed": seed,
    }


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, dict, list]:
    # the probes are spread over the timed loop: the host's speed moves in
    # phases of several seconds, and probes taken back to back see only one.
    # A probe's process evicts this one's caches, so an untimed warm-up call
    # follows each probe before timing resumes.
    setups: list[float] = []
    raw_setups: list[float] = []

    def between():
        setup_probe(wl.name, setups, raw_setups)
        warm_up(wl)

    (r,) = measure(wl, [Tracer(False)], seed, seconds, between, SETUP_REPEATS)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(r["lat"])
    q, p_tail = tail(r["lat"])
    _, raw_tail = tail(r["raw_lat"])
    fail_ratio = r["failed"] / r["items"]
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh interpreters, reference time"),
        "items_per_s": (r["done"] / (r["busy_ns"] / 1e9), "1/s",
                        f"{r['done']} of {r['items']} items done in {n} calls"),
        "call_p50_us": (statistics.median(r["lat"]) / 1e3, "us", f"{n} calls"),
        "call_p99_us": (p_tail / 1e3, "us", f"{n} calls, percentile p{100 * q:.2f}"),
        "ok_ratio": (1.0 - fail_ratio, "ratio", f"{r['items']} items"),
        "peak_rss_mb": (rss_mb, "MB", "1 process"),
    }
    sp = r["speeds"]
    notes = [
        f"fail_ratio {fail_ratio!r} ratio ({r['failed']} of {r['items']} items)",
        f"failures by type: {dict(sorted(r['tags'].items()))}",
        f"tail percentile used for call_p99_us: p{100 * q:.2f}",
        f"host speed: calibration kernel at {statistics.median(sp):.0f} runs/s "
        f"(min {min(sp):.0f}, max {max(sp):.0f}, {len(sp)} windows; reference {REF_RATE:.0f})",
        f"unscaled wall-clock: setup_s {statistics.median(raw_setups)!r}, "
        f"items_per_s {r['done'] / (r['raw_busy_ns'] / 1e9)!r}, "
        f"call_p50_us {statistics.median(r['raw_lat']) / 1e3!r}, call_p99_us {raw_tail / 1e3!r}",
    ]
    return metrics, r, notes


def per_layer(wl, seed: int, seconds: float) -> tuple[dict, dict, list]:
    tr = Tracer(True)
    plain, r = measure(wl, [Tracer(False), tr], seed, seconds)
    s = tr.summary(SPANS)
    c = tr.counts

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    metrics = {}
    for key, value in s.items():
        unit = {"calls": "count", "busy_s": "s", "p50_us": "us"}[key.rsplit(".", 1)[1]]
        metrics[key] = (value, unit, "traced calls")
    sup_s = s["mobius.sup_on_torus.busy_s"]
    untraced = plain["done"] / (plain["busy_ns"] / 1e9)
    traced = r["done"] / (r["busy_ns"] / 1e9)
    counts = {
        "mobius.sup_on_torus.grid_evals_per_s": (
            c["mobius.sup_on_torus.grid_evals"] / sup_s if sup_s else 0.0, "1/s"),
        "membership.conditions_evaluated": (c["membership.conditions"], "count"),
        "membership.boundary_flag_ratio": (
            ratio("membership.boundary_flags", "membership.conditions"), "ratio"),
        "membership.in_g.levels_mean": (
            ratio("membership.in_g.levels", "membership.in_g.reports"), "count"),
        "schwarz.feasible_ratio": (ratio("schwarz.feasible", "schwarz.certificates"), "ratio"),
        "distances.certified_ratio": (
            ratio("distances.certified", "distances.reports"), "ratio"),
        "geometry.separating_polynomial.terms_mean": (
            c["geometry.separating_polynomial.terms"] / s["geometry.separating_polynomial.calls"]
            if s["geometry.separating_polynomial.calls"] else 0.0, "count"),
        "cli.self_share": (
            1.0 - ratio("cli.replay_ns", "cli.command_ns") if c["cli.command_ns"] else 0.0,
            "ratio"),
        "trace.untraced_items_per_s": (untraced, "1/s"),
        "trace.traced_items_per_s": (traced, "1/s"),
        "trace.overhead_items_per_s": (untraced - traced, "1/s"),
    }
    for key, (value, unit) in counts.items():
        metrics[key] = (float(value), unit, "traced calls")
    path = os.path.join(ROOT, ".perfbench", f"trace-{wl.name}-{seed}.jsonl.gz")
    tr.dump(path)
    notes = [
        f"spans: {len(tr.start)} written to {os.path.relpath(path, ROOT)}",
        f"untraced calls: {plain['done']} of {plain['items']} items done in "
        f"{len(plain['lat'])} calls; traced calls: {r['done']} of {r['items']} items done "
        f"in {len(r['lat'])} calls",
        f"failures by type: {dict(sorted((plain['tags'] + r['tags']).items()))}",
    ]
    both = {key: plain[key] + r[key] for key in ("items", "failed")}
    return metrics, both, notes


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload; choose from {sorted(WORKLOADS)}\n")
        return 2
    wl = WORKLOADS[workload]
    facts = host_facts(seed)
    warm_up(wl)
    metrics, r, notes = (per_layer if trace else end_to_end)(wl, seed, seconds)
    wide_failed = 0
    if hasattr(wl, "wide_probe"):
        wide_failed, tags = wl.wide_probe(seed)
        notes.append(
            f"wide-magnitude probe (untimed, outside attempted/failed): {wide_failed} of "
            f"{WIDE_POINTS} points failed; by type: {dict(sorted(tags.items()))}")
    if trace:
        metrics["membership.wide_fail_ratio"] = (
            wide_failed / WIDE_POINTS, "ratio", f"{WIDE_POINTS} wide-magnitude points, untimed")
    print(f"workload {wl.name}  trace {int(trace)}  seconds {seconds}")
    print("host " + json.dumps(facts))
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:48s} {value!r:>24} {unit:6s} [{samples}]")
    for line in notes:
        print("  " + line)
    result = {
        "correct": r["failed"] == 0,
        "attempted": r["items"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
