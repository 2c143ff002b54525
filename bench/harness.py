"""In-process runner for one benchmark run; started by run.py.

    python3 bench/harness.py <plan.json> <result.json> <pass index>
    python3 bench/harness.py --ready     # set-up probe, prints "ready"

Runs from the root of a checkout and imports the program from ./src.  One
closed-loop caller issues the plan's requests through
``sturmjsr.cli.main(argv)`` with stdout captured, one after another: one
pass over the list per process, so that no pass inherits the caches
(sympy memoises factorint) that an earlier pass filled.  Pass 0 then checks
its outputs and runs the known-defect probes, untimed and untraced; with
tracing, pass 1 is the traced one.  Every pass runs host-speed
calibration blocks between requests (calibrate.py), outside any span and
outside the pass time, and records when each request started, so that
run.py can scale its time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import sturmjsr.cli  # noqa: E402
from sturmjsr.family import resolve_family  # noqa: E402
from sturmjsr.linalg2 import squarefree_split  # noqa: E402

clock = time.perf_counter


def warm_up() -> None:
    """The lazy set-up a fresh CLI process pays once (reported as setup_s)."""
    for name in ("hmst", "kozyakin", "bousch-mairesse"):
        resolve_family(name)
    squarefree_split(10 ** 30 + 1)  # fills the trial-prime table


def call(argv: list[str]) -> tuple[object, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            rc = sturmjsr.cli.main(argv)  # looked up per call: may be wrapped
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a crash is a failed request, not a harness error
            rc = f"{type(e).__name__}: {e}"
        dt = clock() - t0
    text = out.getvalue()
    if rc != 0 and not text:
        text = err.getvalue()[-500:]
    return rc, text, dt


def cpu_now() -> float:
    s, c = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def run_pass(requests, cal) -> tuple[dict, list]:
    """One pass over the list.  With a calibrator, reference blocks run
    between requests (calibrate.py); their time is kept out of the pass."""
    lat, cpu, starts, digests, outputs = [], [], [], [], []
    in_cal = 0.0
    t0 = clock()
    for req in requests:
        if cal is not None:
            t = clock()
            cal.tick()
            in_cal += clock() - t
        c0 = cpu_now()
        rc, text, dt = call(req["argv"])
        cpu.append(cpu_now() - c0)
        starts.append(clock() - dt)
        lat.append(dt)
        outputs.append((rc, text))
    if cal is not None:
        cal.tick()
    wall = clock() - t0 - in_cal
    for rc, text in outputs:
        digests.append(f"{rc}:{hashlib.sha256(text.encode()).hexdigest()}")
    return {"wall": wall, "cpu": sum(cpu), "lat": lat, "req_cpu": cpu, "starts": starts,
            "cal": cal.samples if cal is not None else [], "digests": digests}, outputs


def main() -> int:
    if sys.argv[1:] == ["--ready"]:  # set-up probe: import, warm, signal
        warm_up()
        print("ready", flush=True)
        return 0
    import calibrate
    import checks
    import tracing

    plan_path, result_path, index = sys.argv[1], sys.argv[2], int(sys.argv[3])
    with open(plan_path) as fh:
        plan = json.load(fh)
    requests = plan["requests"]
    warm_up()
    ready_s = clock() - STARTED
    # Exact endpoints of large-q steps have more than the default 4300
    # digits that Python converts to text, so the requests run as a user
    # with PYTHONINTMAXSTRDIGITS=0 would.  The probes below restore the
    # default, where the CLI exits 2 on those requests (a known defect).
    default_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)

    tracer = tracing.Tracer(plan["trace_dir"])
    cal = calibrate.Calibrator()
    if plan["trace"] and index == 1:
        tracing.install(tracer)
        tracer.on = True
    result, outputs = run_pass(requests, cal)
    tracer.on = False
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    result.update(
        ready_s=ready_s,
        maxrss_kb=self_ru.ru_maxrss + child_ru.ru_maxrss,
    )
    if tracer.stats:
        result["trace"] = {
            "stats": tracer.stats,
            "counters": tracer.counters,
            "top_total": tracer.top_total,
            "workers": tracer.worker_records(),
        }
    if index == 0:
        t0 = clock()
        failures = checks.run_checks(requests, outputs)
        result["failures"] = {str(i): msg for i, msg in failures.items()}
        sys.set_int_max_str_digits(default_digits)
        result["probes"] = []
        for probe in plan["probes"]:
            rc, text, _ = call(probe["argv"])
            msg = checks.Checker().check({"check": probe["check"]}, rc, text, {})
            result["probes"].append(
                {"name": probe["name"], "open": msg is not None, "detail": msg or "passes now"}
            )
        result["check_s"] = clock() - t0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
