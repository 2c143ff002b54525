"""sturmjsr benchmark: one closed-loop caller driving the CLI in-process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads: staircase, deep-steps, oracle,
irrational (see README.md in this directory).  With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced pass.  A readable report, with
sample counts, output-check failures and known-defect probes, goes to
stderr.  Exits 2 without a result when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

SETUP_SAMPLES = 5
MIN_SAMPLES = 100  # latency samples per run, so that ten lie beyond p90
RUN_BUDGET_S = 170  # a run must end within 180 s

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

# name -> unit; "<span>.calls" and "<span>.self_s" come from the spans of
# tracing.install, the rest from its counters or from the run itself.
PER_LAYER = {
    "linalg2.QuadExt.mul.calls": "count",
    "linalg2.QuadExt.mul.self_s": "s",
    "linalg2.QuadExt.pow.calls": "count",
    "linalg2.QuadExt.pow.self_s": "s",
    "linalg2.QuadExt.inverse.self_s": "s",
    "linalg2.QuadExt.to_mpf.calls": "count",
    "linalg2.QuadExt.to_mpf.self_s": "s",
    "linalg2.squarefree_split.calls": "count",
    "linalg2.squarefree_split.self_s": "s",
    "linalg2.factorint.calls": "count",
    "linalg2.Mat2.matmul.calls": "count",
    "linalg2.Mat2.matmul.self_s": "s",
    "linalg2.Mat2.pow.self_s": "s",
    "linalg2.Mat2.to_mpf.calls": "count",
    "linalg2.Mat2.to_mpf.self_s": "s",
    "linalg2.spectral_radius.calls": "count",
    "linalg2.spectral_radius.self_s": "s",
    "linalg2.perron_projection.self_s": "s",
    "linalg2.rank_one_spectral_radius.self_s": "s",
    "linalg2.quad_compare.calls": "count",
    "linalg2.quad_compare.self_s": "s",
    "family.product.calls": "count",
    "family.product.self_s": "s",
    "family.product.letters": "count",
    "family.resolve_family.self_s": "s",
    "family.check_technical_hypotheses.self_s": "s",
    "words.standard_pair_for.calls": "count",
    "words.standard_pair_for.self_s": "s",
    "words.necklaces.yielded": "count",
    "words.necklaces.self_s": "s",
    "words.is_cyclically_balanced.self_s": "s",
    "contfrac.cf_of_rational.calls": "count",
    "contfrac.cf_of_quadratic.self_s": "s",
    "contfrac.cf_of_real.self_s": "s",
    "precision.mpf_from_fraction.calls": "count",
    "precision.mpf_from_fraction.self_s": "s",
    "precision.fraction_from_mpf.calls": "count",
    "precision.fraction_from_mpf.self_s": "s",
    "rational_preimage.preimage_interval.calls": "count",
    "rational_preimage.preimage_interval.self_s": "s",
    "rational_preimage.preimage_zero_one.calls": "count",
    "rational_preimage.varrho_on_interval.self_s": "s",
    "irrational_preimage.alpha_for_irrational.calls": "count",
    "irrational_preimage.alpha_for_irrational.self_s": "s",
    "irrational_preimage.rho_sequence.calls": "count",
    "irrational_preimage.rho_sequence.self_s": "s",
    "irrational_preimage.rho_sequence.max_q": "count",
    "irrational_preimage.rigor_certificate.self_s": "s",
    "irrational_preimage.terms_built_per_used": "ratio",
    "oracle.jsr_bounds.calls": "count",
    "oracle.jsr_bounds.self_s": "s",
    "oracle.check_condition_v.self_s": "s",
    "staircase.build_staircase.self_s": "s",
    "staircase.pool_wait_s": "s",
    "staircase.render.self_s": "s",
    "staircase.gap_diagnostics.self_s": "s",
    "staircase.ratio_at.calls": "count",
    "staircase.ratio_at.self_s": "s",
    "staircase.ratio_at.intervals_per_query": "ratio",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_self_s": "s",
    "trace.worker_self_s": "s",
    "bench.own_s": "s",
    "bench.known_defects_open": "count",
}


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def measure_setup() -> list[float]:
    """Fresh interpreter to ready: import sturmjsr and its CLI, build the
    builtin families and finish first-call lazy set-up.  Raw times; see
    scaled_setup."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "harness.py"), "--ready"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not become ready")
        out.append(dt)
    return out


def scaled_setup(setup: list[float], first_pass: dict) -> list[float]:
    """Set-up times at the reference host speed.  The samples run in other
    processes just before pass 0, so they are scaled by the mean block time
    of the whole of pass 0 rather than by blocks within WINDOW_S."""
    block = statistics.fmean(b for _, b in first_pass["cal"])
    return [x * calibrate.REF_S / block for x in setup]


def scaled(p: dict, key: str) -> list[float]:
    """Per-request times of one pass (``lat`` or ``req_cpu``) at the
    reference host speed."""
    return [calibrate.scale(p["cal"], t0, t0 + dt, x)
            for t0, dt, x in zip(p["starts"], p["lat"], p[key])]


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    lat = [x for p in passes for x in scaled(p, "lat")]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(scaled(p, "lat")) for p in passes),
        "req_p50_ms": percentile(lat, 50) * 1000,
        "req_p90_ms": percentile(lat, 90) * 1000,
        "cpu_s": statistics.median(sum(scaled(p, "req_cpu")) for p in passes),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024,
    }


def raw_end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """The same figures without the host-speed scaling, for the report."""
    lat = [x for p in passes for x in p["lat"]]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "req_p50_ms": percentile(lat, 50) * 1000,
        "req_p90_ms": percentile(lat, 90) * 1000,
        "cpu_s": statistics.median(p["cpu"] for p in passes),
    }


def per_layer(passes: list[dict], probes: list[dict]) -> dict:
    tr = passes[1]["trace"]
    merged: dict[str, list] = {}  # name -> [calls, self_s], parent plus workers
    counters: dict[str, float] = dict(tr["counters"])
    for rec in [{"stats": tr["stats"], "counters": {}}] + tr["workers"]:
        for name, (calls, self_s) in rec["stats"].items():
            m = merged.setdefault(name, [0, 0.0])
            m[0] += calls
            m[1] += self_s
        for key, val in rec["counters"].items():
            counters[key] = counters.get(key, 0) + val
    worker_self = sum(s[1] for rec in tr["workers"] for s in rec["stats"].values())

    def stat(name, i):
        return merged.get(name, [0, 0.0])[i]

    untraced, traced = passes[0]["wall"], passes[1]["wall"]
    ratio_calls = stat("staircase.ratio_at", 0)
    used = counters.get("irrational_preimage.terms_used", 0)
    special = {
        "family.product.letters": counters.get("family.product.letters", 0),
        "words.necklaces.yielded": counters.get("words.necklaces.yielded", 0),
        "rational_preimage.preimage_zero_one.calls":
            stat("rational_preimage.preimage_zero", 0) + stat("rational_preimage.preimage_one", 0),
        "irrational_preimage.rho_sequence.max_q": counters.get("irrational_preimage.rho_sequence.max_q", 0),
        "irrational_preimage.terms_built_per_used":
            counters.get("irrational_preimage.terms_built", 0) / used if used else 0.0,
        "staircase.pool_wait_s": stat("staircase.pool_wait", 1),
        "staircase.ratio_at.intervals_per_query":
            counters.get("staircase.ratio_at.intervals", 0) / ratio_calls if ratio_calls else 0.0,
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        # both passes' request times at the reference host speed, so that a
        # change of the host's phase between the passes does not show
        "trace.overhead_s": sum(scaled(passes[1], "lat")) - sum(scaled(passes[0], "lat")),
        "trace.layer_self_s": sum(s[1] for s in tr["stats"].values()),
        "trace.worker_self_s": worker_self,
        "bench.own_s": traced - tr["top_total"],
        "bench.known_defects_open": sum(p["open"] for p in probes),
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = stat(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = stat(name[: -len(".self_s")], 1)
        else:
            raise KeyError(name)
    return out


def run_harness(plan_path: str, result_path: str, index: int, timeout: float) -> dict:
    """One pass in a fresh interpreter; its own session, so that a timeout
    also ends the pool workers."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "harness.py"), plan_path, result_path, str(index)],
        start_new_session=True,
    )
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"harness pass {index} exited {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def run_passes(args, plan_path: str, work: str, deadline: float) -> list[dict]:
    """Fresh harness process per pass; passes continue while another one
    still fits in --seconds (start-up and timed phase, not the checks) or
    fewer than MIN_SAMPLES latencies exist.  With tracing: exactly one
    untraced and one traced pass."""
    passes: list[dict] = []
    used = 0.0  # interpreter start-up plus timed phase; checks do not count
    while True:
        index = len(passes)
        passes.append(run_harness(
            plan_path, os.path.join(work, f"pass-{index}.json"), index,
            max(5.0, deadline - time.perf_counter()),
        ))
        if args.trace:
            if len(passes) == 2:
                return passes
            continue
        next_pass = passes[-1]["ready_s"] + passes[-1]["wall"]
        used += next_pass
        samples = sum(len(p["lat"]) for p in passes)
        if samples >= MIN_SAMPLES and used + next_pass > args.seconds:
            return passes


def failed_per_pass(passes: list[dict]) -> list[int]:
    """Pass 0 failures from its checks; a later pass also fails a request
    whose exit code or output differs from pass 0's."""
    first = passes[0]
    out = [len(first["failures"])]
    for p in passes[1:]:
        out.append(sum(
            1 for i, (a, b) in enumerate(zip(first["digests"], p["digests"]))
            if a != b or str(i) in first["failures"]
        ))
    return out


def report(args, plan, passes, failed, metrics, units, setup, raw) -> None:
    n_req = len(plan["requests"])
    attempted = n_req * len(passes)
    err = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}", file=err)
    print(f"  {len(passes)} passes x {n_req} requests = {attempted} requests "
          f"(latency samples {attempted}); set-up samples {len(setup)}", file=err)
    walls = " ".join(f"{p['wall']:.3f}" for p in passes)
    print(f"  pass walls (s): {walls}", file=err)
    print(f"  failed_frac {sum(failed) / attempted:.4f} ({sum(failed)} of {attempted}); "
          f"checks and probes took {passes[0]['check_s']:.1f} s", file=err)
    for i, msg in sorted(passes[0]["failures"].items(), key=lambda kv: int(kv[0]))[:20]:
        print(f"    FAILED {' '.join(plan['requests'][int(i)]['argv'])}: {msg}", file=err)
    for name, val in metrics.items():
        extra = f"   (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:48s} {val:14.6g} {units[name]}{extra}", file=err)
    for p in passes[0]["probes"]:
        state = "OPEN" if p["open"] else "fixed"
        print(f"  known defect [{state}] {p['name']}: {p['detail']}", file=err)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + RUN_BUDGET_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sturmjsr", "cli.py")):
        return fail("no program here: run from the root of a sturmjsr checkout")
    work_rel = os.path.join(".bench_build", f"run-{os.getpid()}")
    work = os.path.join(root, work_rel)
    os.makedirs(os.path.join(work, "trace"), exist_ok=True)
    try:
        plan = make_plan(args.workload, args.seed, work_rel)
        for path, cfg in plan["files"].items():
            with open(os.path.join(root, path), "w") as fh:
                json.dump(cfg, fh)
        plan.update(trace=args.trace, trace_dir=os.path.join(work, "trace"))
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        setup = [] if args.trace else measure_setup()
        passes = run_passes(args, plan_path, work, deadline)
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        return fail(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, units, raw = per_layer(passes, passes[0]["probes"]), PER_LAYER, {}
    else:
        metrics, units = end_to_end(passes, scaled_setup(setup, passes[0])), dict(END_TO_END)
        raw = raw_end_to_end(passes, setup)
    failed = failed_per_pass(passes)
    report(args, plan, passes, failed, metrics, units, setup, raw)
    print(json.dumps({
        "correct": sum(failed) == 0,
        "attempted": len(plan["requests"]) * len(passes),
        "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
