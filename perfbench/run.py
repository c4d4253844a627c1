"""veilshare benchmark: seeded workloads driven through the public API.

    python3 perfbench/run.py --workload sim-l5 --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: the next op starts
when the previous one has returned and its output has been checked.  The
package is imported from ``src/`` beside this directory, never from an
installed copy.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it alternates untraced and traced blocks of one fixed,
seeded list of ops, so integer counters repeat exactly for a seed and the
difference between the two kinds of block is the tracing overhead.  The
spans are written to ``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# The Klein pass in lattice.sample_gadget_cosets runs float matmuls through
# OpenBLAS; pin it to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SECRET_K = 3
SETUP_REPEATS = 5        # set-ups per run; setup_s is their median
MODULES = ("setsys", "tokens", "lattice", "serial", "vss", "sim")

END_TO_END = {           # name -> unit
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
    "share_bytes": "B",
}

# Per-layer metrics, per op of the traced blocks.  The four set-up layers
# are the exception: they are per set-up, from one traced set-up.
SELF_MS = [
    "lattice.sample_preimage_batch", "lattice.sample_gadget_cosets",
    "lattice.trapdoor_gen", "lattice.sample_prim_secret", "lattice.lwe_invert",
    "tokens.encode_access_structure", "tokens.combine_tokens",
    "vss.deal", "vss.seal_header", "vss.open_header", "vss.serialize_bundles",
    "vss.reconstruct", "vss.verify_shares", "vss.ShareBundle.from_doc",
    "serial.matrix_doc", "serial.doc_matrix", "serial.serialize",
    "serial.deserialize", "serial.equalize_lengths", "sim.run_simulation",
]
SETUP_SELF_MS = [
    "tokens.default_token_systems", "setsys.build_grolmusz_system",
    "setsys.merge_systems", "setsys.SetSystem.gram",
]
COUNTS = {               # name -> unit
    "lattice.sample_preimage_batch.calls": "count",
    "lattice.sample_gadget_cosets.rows": "count",
    "lattice.trapdoor_gen.calls": "count",
    "lattice.sample_prim_secret.tries": "count",
    "tokens.encode_access_structure.calls": "count",
    "vss.serialize_bundles.calls": "count",
    "serial.matrix_doc.calls": "count",
    "serial.serialize.bytes": "B",
    "vss.open_header.calls": "count",
    "vss.open_header.failures": "count",
    "lattice.lwe_invert.calls": "count",
    "lattice.lwe_invert.failures": "count",
    "lattice.matmul_mod.calls": "count",
    "lattice.matmul_mod.object_calls": "count",
    "tokens.combine_tokens.calls": "count",
    "tokens.membership_test.calls": "count",
}
RATIOS = {               # name -> (numerator count, denominator count)
    "lattice.preimage.first_pass_ratio": (
        "lattice.preimage.first_pass_rows", "lattice.sample_gadget_cosets.rows"),
    "tokens.membership_test.accept_ratio": (
        "tokens.membership_test.accepts", "tokens.membership_test.calls"),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_ms": "ms" for name in SELF_MS + SETUP_SELF_MS}
    units.update(COUNTS)
    units.update({name: "ratio" for name in RATIOS})
    units["trace.overhead_pct"] = "%"
    return units


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def derive(seed: int, *labels) -> int:
    """A 62-bit seed for one named input stream of the workload seed."""
    h = hashlib.blake2b(repr((seed,) + labels).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") >> 2


def import_package() -> SimpleNamespace:
    """Import the package afresh from src/, so every lazy cache starts empty."""
    if not (SRC / "veilshare" / "__init__.py").is_file():
        raise BenchError(f"no veilshare package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "veilshare" or n.startswith("veilshare.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"veilshare.{m}") for m in MODULES})
    if not Path(mods.vss.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"veilshare was imported from {mods.vss.__file__}, not {SRC}")
    return mods


def set_up(workload_cls, seed: int, tracer: Tracer | None = None):
    """Import, build the token systems and make one warm-up deal.

    The warm-up deal fills the encoding-structure and gadget-basis caches,
    which every later deal reuses.  Returns the modules and the seconds taken.
    """
    gc.collect()
    start = perf_counter()
    mods = import_package()
    if tracer is not None:
        tracer.install(mods)
    params = mods.vss.VssParams.desk()
    mods.tokens.default_token_systems(params.token_m, params.token_m_prime,
                                      params.token_n, params.token_l)
    mods.vss.deal(mods.vss.Secret(SECRET_K, params.lwe.p), workload_cls.gamma0,
                  workload_cls.parties, params, seed=derive(seed, "warm-up"))
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.remove()
    return mods, elapsed


# ---------------------------------------------------------------------------
# workloads: each builds its inputs from the seed, runs one op on an input
# and checks the op's output outside the timed region


class Workload:
    name = ""
    gamma0: tuple = ()
    parties = 0
    tail_pct = 90            # op_tail_ms percentile; min_ops leaves 10 samples above it
    round_ops = 1            # the loop checks the clock only between rounds
    trace_ops = 1            # ops in one traced (or untraced) block of a --trace 1 run

    def __init__(self, mods, seed: int):
        self.mods = mods
        self.seed = seed
        self.params = mods.vss.VssParams.desk()
        self.secret = mods.vss.Secret(SECRET_K, self.params.lwe.p)

    @property
    def min_ops(self) -> int:
        return math.ceil(10 / (1 - self.tail_pct / 100))

    def deal_wire(self, deal_seed: int):
        """Deal at this workload's shape; return the blobs and their parsed bundles."""
        vss, serial = self.mods.vss, self.mods.serial
        bundles = vss.deal(self.secret, list(self.gamma0), self.parties, self.params,
                           seed=deal_seed)
        blobs = vss.serialize_bundles(bundles)
        parsed = [vss.ShareBundle.from_doc(serial.deserialize(b, "share-bundle"))
                  for b in blobs]
        return blobs, parsed

    def share_bytes(self) -> int:
        blobs, _ = self.deal_wire(derive(self.seed, self.name, "share-bytes"))
        return len(blobs[0])


class SimL5(Workload):
    """One seeded corruption trial: deal, forge one encoding, reconstruct, verify."""

    name = "sim-l5"
    gamma0 = ((1, 2, 3),)
    parties = 5
    tail_pct = 90
    trace_ops = 20

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        self.base = derive(seed, self.name)

    def op_input(self, i):
        return self.mods.sim.SimulationConfig(
            secret_k=SECRET_K, parties=self.parties, gamma0=self.gamma0, malicious=1,
            mode="encoding", trials=1, seed=self.base + i, params=self.params)

    def run(self, config):
        return self.mods.sim.run_simulation(config)

    def check(self, config, report) -> bool:
        trial = report.trials[0]
        return (trial["outcome"] != "unauthorized" and trial["verdicts"] is not None
                and report.totals["corrupted_checks"] == 1)


class WireL6(Workload):
    """Deal three chains, serialize the bundles, parse every blob back."""

    name = "wire-l6"
    gamma0 = ((1, 2, 3), (2, 4, 5), (1, 6))
    parties = 6
    tail_pct = 75
    trace_ops = 5

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        self.base = derive(seed, self.name)

    def op_input(self, i):
        return self.base + i

    def run(self, deal_seed):
        return self.deal_wire(deal_seed)

    def check(self, deal_seed, output) -> bool:
        blobs, parsed = output
        return (len({len(b) for b in blobs}) == 1
                and self.mods.vss.serialize_bundles(parsed) == blobs)


class SweepL6(Workload):
    """Every nonempty coalition of a few dealings tries to reconstruct and verify."""

    name = "sweep-l6"
    gamma0 = WireL6.gamma0
    parties = 6
    dealings = 3             # token sizes, hence refusal cost, vary by dealing
    tail_pct = 99
    round_ops = 63 * dealings    # one op per nonempty coalition of each dealing
    trace_ops = round_ops

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        # input generation, not timed: dealings round-tripped through bytes
        self.shares = [self.deal_wire(derive(seed, self.name, d))[1]
                       for d in range(self.dealings)]
        coalitions = [c for r in range(1, self.parties + 1)
                      for c in itertools.combinations(range(1, self.parties + 1), r)]
        self.inputs = [(d, c) for d in range(self.dealings) for c in coalitions]
        random.Random(derive(seed, self.name, "order")).shuffle(self.inputs)

    def share_bytes(self) -> int:
        blobs = self.mods.vss.serialize_bundles(self.shares[0])
        return len(blobs[0])

    def op_input(self, i):
        return self.inputs[i % len(self.inputs)]

    def run(self, op_input):
        dealing, coalition = op_input
        vss = self.mods.vss
        bundles = [self.shares[dealing][party - 1] for party in coalition]
        try:
            secret = vss.reconstruct(bundles)
        except vss.UnauthorizedError:
            return None
        return secret, vss.verify_shares(bundles, secret)

    def check(self, op_input, output) -> bool:
        _, coalition = op_input
        authorized = any(set(omega) <= set(coalition) for omega in self.gamma0)
        if output is None:
            return not authorized
        secret, verdicts = output
        return (authorized and secret.k == SECRET_K
                and verdicts == {party: 1 for party in coalition})


WORKLOADS = {cls.name: cls for cls in (SimL5, WireL6, SweepL6)}


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Op latencies of successful ops, plus attempted and failed counts."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def run_op(self, workload: Workload, op_input, tracer: Tracer | None = None) -> float:
        """Run, time and check one op; return the seconds it took.

        With a tracer installed, only the op is recorded, not its check.
        """
        self.attempted += 1
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            output = workload.run(op_input)
        except Exception as exc:        # an exception the workload does not expect
            elapsed = perf_counter() - start
            self._fail(f"op raised {type(exc).__name__}: {exc}")
            return elapsed
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = perf_counter() - start
        try:
            ok = workload.check(op_input, output)
        except Exception as exc:
            ok = False
            self._fail(f"check raised {type(exc).__name__}: {exc}")
        else:
            if not ok:
                self._fail(f"output check failed for input {op_input!r}")
        if ok:
            self.latencies.append(elapsed)
        return elapsed

    def _fail(self, reason: str):
        self.failed += 1
        if self.first_error is None:
            self.first_error = reason


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def measure_end_to_end(workload: Workload, seconds: float, setup_s: float, info: dict):
    tally = Tally()
    gc.collect()
    busy = 0.0
    start = perf_counter()
    i = 0
    while True:
        for _ in range(workload.round_ops):
            busy += tally.run_op(workload, workload.op_input(i))
            i += 1
        if perf_counter() - start >= seconds and tally.attempted >= workload.min_ops:
            break
    lat = sorted(tally.latencies)
    if not lat:
        raise BenchError(f"every op failed; first: {tally.first_error}")
    info.update(op_tail_percentile=workload.tail_pct, op_samples=len(lat),
                op_samples_beyond_tail=sum(v > percentile(lat, workload.tail_pct) for v in lat),
                failed_ratio=tally.failed / tally.attempted, first_error=tally.first_error)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": percentile(lat, workload.tail_pct) * 1e3,
        "ops_per_s": len(lat) / busy,
        "ok_ratio": len(lat) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "share_bytes": workload.share_bytes(),
    }
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def measure_per_layer(workload: Workload, seconds: float, setup_tracer: Tracer, info: dict):
    tally = Tally()
    tracer = Tracer("ops")
    block = [workload.op_input(i) for i in range(workload.trace_ops)]
    untraced = traced = 0.0
    blocks = 0
    gc.collect()
    start = perf_counter()
    while not blocks or perf_counter() - start < seconds:
        for op_input in block:
            untraced += tally.run_op(workload, op_input)
        tracer.install(workload.mods)
        try:
            for index, op_input in enumerate(block):
                tracer.op = blocks * len(block) + index
                traced += tally.run_op(workload, op_input, tracer)
        finally:
            tracer.remove()
        blocks += 1
    ops = blocks * len(block)

    counts = tracer.counts
    metrics = {f"{name}.self_ms": tracer.self_ns[name] / 1e6 / ops for name in SELF_MS}
    metrics.update({f"{name}.self_ms": setup_tracer.self_ns[name] / 1e6
                    for name in SETUP_SELF_MS})
    metrics.update({name: counts[name] / ops for name in COUNTS})
    metrics.update({name: counts[num] / counts[den] if counts[den] else 0.0
                    for name, (num, den) in RATIOS.items()})
    metrics["trace.overhead_pct"] = (traced / untraced - 1) * 100
    info.update(traced_ops=ops, traced_blocks=blocks,
                untraced_ms_per_op=untraced / ops * 1e3, traced_ms_per_op=traced / ops * 1e3,
                counts_per_block={k: v // blocks for k, v in sorted(counts.items())},
                failed_ratio=tally.failed / tally.attempted, first_error=tally.first_error)

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    with open(trace_path, "w") as fh:
        setup_tracer.write(fh)
        tracer.write(fh)
    info["trace_file"] = str(trace_path.relative_to(ROOT))
    units = per_layer_units()
    return tally, {k: (v, units[k]) for k, v in metrics.items()}


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, tamper=None):
    """Run one workload; return (tally, {metric: (value, unit)}, info).

    ``tamper``, if given, is applied to the workload after its inputs are
    built; the harness self-test uses it to show that bad outputs count as
    failed ops.
    """
    workload_cls = WORKLOADS[workload_name]
    info = {"workload": workload_name, "seed": seed, "trace": int(trace), "seconds": seconds}
    if trace:
        setup_tracer = Tracer("setup")
        mods, _ = set_up(workload_cls, seed, setup_tracer)
    else:
        times = []
        for _ in range(SETUP_REPEATS):
            mods, elapsed = set_up(workload_cls, seed)
            times.append(elapsed)
        info["setup_runs_s"] = times
    info.update(machine_facts())
    workload = workload_cls(mods, seed)
    if tamper is not None:
        tamper(workload)
    if trace:
        tally, metrics = measure_per_layer(workload, seconds, setup_tracer, info)
    else:
        tally, metrics = measure_end_to_end(workload, seconds, statistics.median(times), info)
    return tally, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    try:
        tally, metrics, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
