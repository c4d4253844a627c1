"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

With short runs of every workload it checks that:

1. the untraced and the traced run each end with a result line that names
   exactly the metrics BENCHMARK.json lists, each with its unit;
2. the integer counters of the traced run repeat exactly across two runs
   of one seed;
3. a deliberately tampered input makes ops fail, so failed_ratio rises
   above 0.

Prints one line per check and exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
SEED = 7


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """One short run as the benchmark driver makes it; (result, info)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])


def tamper_sim(workload):
    honest = workload.op_input
    # a token swap de-authorizes the coalition: outcome "unauthorized"
    workload.op_input = lambda i: dataclasses.replace(honest(i), mode="token")


def tamper_wire(workload):
    workload.gamma0 = ((1, 2, 3), (1, 2, 3, 4))     # not minimal: deal refuses it


def tamper_sweep(workload):
    share = workload.shares[0][0].instances[0]
    share.d_matrix = share.d_matrix + 1             # party 1 holds a forged encoding


TAMPERS = {"sim-l5": tamper_sim, "wire-l6": tamper_wire, "sweep-l6": tamper_sweep}


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    count_names = set(run.COUNTS) | set(run.RATIOS)
    problems = []

    def check(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the harness's workloads")
    def counters(result: dict) -> dict:
        return {k: v["value"] for k, v in result["metrics"].items() if k in count_names}

    for workload in run.WORKLOADS:
        results = {trace: bench(workload, trace)[0] for trace in (0, 1)}
        for trace, result in results.items():
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want[trace] and result["correct"] and result["failed"] == 0,
                  f"{workload} trace {trace}: every named metric with its unit, no failed op")
        again, info = bench(workload, 1)
        check(counters(results[1]) == counters(again) and info["counts_per_block"],
              f"{workload}: per-layer counters repeat across two runs of seed {SEED}")

        tally, _, info = run.run(workload, SEED, seconds=0.01, trace=True,
                                 tamper=TAMPERS[workload])
        check(info["failed_ratio"] > 0 and tally.failed > 0,
              f"{workload}: tampered input gives failed_ratio {info['failed_ratio']:.3f} > 0")
    print("selftest", "passed" if not problems else f"failed: {len(problems)} checks")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
