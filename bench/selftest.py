"""Quick self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Run from the root of a checkout.  For each workload it keeps a few cheap
requests of the seed-0 plan, runs one untraced and one traced pass through
harness.py, and checks that the output checks and probes ran, that no
request failed, and that every metric named in BENCHMARK.json is produced.
It gates on no timing.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402


def cheap(req: dict) -> bool:
    argv = req["argv"]
    if argv[0] == "staircase":
        return "hmst" not in argv  # keep the small config build
    if argv[0] == "oracle":
        return int(argv[argv.index("--maxlen") + 1]) <= 8
    if argv[0] == "interval" and "/" in argv[1]:
        return int(argv[1].split("/")[1]) <= 100
    if argv[0] == "alpha":
        return "5;period=1" not in argv and "--digits" in argv and int(argv[argv.index("--digits") + 1]) <= 60
    return True


def tiny_plan(workload: str, work_rel: str) -> dict:
    plan = make_plan(workload, 0, work_rel)
    kept, per_kind = [], {}
    for req in plan["requests"]:
        key = (req["argv"][0], req["check"].get("family"))
        if cheap(req) and per_kind.get(key, 0) < 2:
            per_kind[key] = per_kind.get(key, 0) + 1
            kept.append(req)
    # a deep-steps request is checked against its mirror partner: keep pairs
    pqs = {(r["check"].get("family"), r["check"].get("pq")) for r in kept}
    for req in plan["requests"]:
        c = req["check"]
        if c["kind"] == "deep" and (c["family"], c["mirror"]) in pqs and req not in kept:
            kept.append(req)
    plan["requests"] = kept
    return plan


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    if want_e2e != {name for name, _ in run.END_TO_END} or want_layer != set(run.PER_LAYER):
        print("selftest: BENCHMARK.json and run.py name different metrics")
        return 1
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        print("selftest: BENCHMARK.json and workloads.py name different workloads")
        return 1
    work_rel = os.path.join(".bench_build", f"selftest-{os.getpid()}")
    work = os.path.join(root, work_rel)
    try:
        for workload in WORKLOADS:
            os.makedirs(os.path.join(work, "trace"), exist_ok=True)
            plan = tiny_plan(workload, work_rel)
            for path, cfg in plan["files"].items():
                with open(os.path.join(root, path), "w") as fh:
                    json.dump(cfg, fh)
            plan.update(trace=1, trace_dir=os.path.join(work, "trace"))
            plan_path = os.path.join(work, "plan.json")
            with open(plan_path, "w") as fh:
                json.dump(plan, fh)
            passes = [
                run.run_harness(plan_path, os.path.join(work, f"pass-{i}.json"), i, 170)
                for i in (0, 1)
            ]
            first = passes[0]
            problems = []
            if "failures" not in first or first["failures"]:
                problems.append(f"output checks failed or did not run: {first.get('failures')}")
            if len(first["probes"]) != len(plan["probes"]):
                problems.append("known-defect probes did not all run")
            if sum(run.failed_per_pass(passes)) != 0:
                problems.append("traced pass output differs from the untraced one")
            e2e = run.end_to_end(passes, [0.0])
            layer = run.per_layer(passes, first["probes"])
            if set(e2e) != want_e2e or set(layer) != want_layer:
                problems.append("a named metric is missing")
            if layer["cli.main.calls"] != len(plan["requests"]):
                problems.append("cli.main was not traced once per request")
            print(f"selftest {workload}: {len(plan['requests'])} requests, "
                  f"{len(first['probes'])} probes, {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
            if problems:
                return 1
            shutil.rmtree(work, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
