"""Outside-in tracing of veilshare's layers for the benchmark.

The tracer wraps public functions of the package from outside, at every
module attribute that is bound to them (``vss``, ``sim`` and ``tokens``
import functions by name, so patching only the defining module would miss
most calls).  Spans are kept in memory as (id, parent, op, name, start_ns,
end_ns) tuples and written out when the run ends.  A span's self time is
its duration minus the durations of the wrapped spans directly inside it;
spans nest strictly because the benchmark runs one thread.

Some functions are wrapped for counting only (``matmul_mod``,
``batch_det_mod``, ``membership_test``): they are called too often, or
cost too little, for a span of their own, and their time stays in the
caller's self time.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns


def _calls(name):
    def hook(tracer, args, result, exc):
        tracer.counts[name + ".calls"] += 1
    return hook


def _calls_failures(name, error):
    def hook(tracer, args, result, exc):
        tracer.counts[name + ".calls"] += 1
        tracer.counts[name + ".failures"] += isinstance(exc, error)
    return hook


def _gadget_rows(tracer, args, result, exc):
    # sample_gadget_cosets(rng, q, d, sigma_z, targets): one row per target.
    # Its first call inside a sample_preimage_batch span is the first pass;
    # later calls in the same span resample rows that broke the norm cap.
    rows = len(args[4])
    tracer.counts["lattice.sample_gadget_cosets.rows"] += rows
    if tracer.parent_child_count() == 0:
        tracer.counts["lattice.preimage.first_pass_rows"] += rows


def _prim_tries(tracer, args, result, exc):
    # batch_det_mod(mats, p) is called by sample_prim_secret once per batch
    # of candidate secrets; every candidate is one rejection-sampling try.
    tracer.counts["lattice.sample_prim_secret.tries"] += len(args[0])


def _matmul(tracer, args, result, exc):
    tracer.counts["lattice.matmul_mod.calls"] += 1
    tracer.counts["lattice.matmul_mod.object_calls"] += (
        result is not None and result.dtype == object)


def _membership(tracer, args, result, exc):
    tracer.counts["tokens.membership_test.calls"] += 1
    tracer.counts["tokens.membership_test.accepts"] += bool(result)


def _serialized_bytes(tracer, args, result, exc):
    tracer.counts["serial.serialize.bytes"] += 0 if result is None else len(result)


def traced_functions(mods):
    """(module, attribute path, opens a span, counting hook) per wrapped function."""
    return [
        ("lattice", "sample_preimage_batch", True, _calls("lattice.sample_preimage_batch")),
        ("lattice", "sample_gadget_cosets", True, _gadget_rows),
        ("lattice", "trapdoor_gen", True, _calls("lattice.trapdoor_gen")),
        ("lattice", "sample_prim_secret", True, None),
        ("lattice", "batch_det_mod", False, _prim_tries),
        ("lattice", "lwe_invert", True,
         _calls_failures("lattice.lwe_invert", mods.lattice.InversionError)),
        ("lattice", "matmul_mod", False, _matmul),
        ("tokens", "default_token_systems", True, None),
        ("tokens", "encode_access_structure", True, _calls("tokens.encode_access_structure")),
        ("tokens", "combine_tokens", True, _calls("tokens.combine_tokens")),
        ("tokens", "membership_test", False, _membership),
        ("setsys", "build_grolmusz_system", True, None),
        ("setsys", "merge_systems", True, None),
        ("setsys", "SetSystem.gram", True, None),
        ("vss", "deal", True, None),
        ("vss", "seal_header", True, None),
        ("vss", "open_header", True, _calls_failures("vss.open_header", mods.vss.VssError)),
        ("vss", "serialize_bundles", True, _calls("vss.serialize_bundles")),
        ("vss", "reconstruct", True, None),
        ("vss", "verify_shares", True, None),
        ("vss", "ShareBundle.from_doc", True, None),
        ("serial", "matrix_doc", True, _calls("serial.matrix_doc")),
        ("serial", "doc_matrix", True, None),
        ("serial", "serialize", True, _serialized_bytes),
        ("serial", "deserialize", True, None),
        ("serial", "equalize_lengths", True, None),
        ("sim", "run_simulation", True, None),
    ]


class Tracer:
    """Spans and integer counters for one traced phase of a run."""

    def __init__(self, phase: str):
        self.phase = phase
        self.op = None               # index of the op in progress, set by the caller
        self.active = True           # while False, wrapped functions run unrecorded
        self.spans: list[tuple] = []
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []     # [span id, child ns, child count] per open span
        self._patches: list[tuple] = []

    def parent_child_count(self) -> int:
        """Closed child spans of the span enclosing the innermost open one."""
        return self._stack[-2][2] if len(self._stack) >= 2 else 0

    def _span(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0, 0]
            self._stack.append(frame)
            result = exc = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                if hook is not None:
                    hook(self, args, result, exc)
                end = perf_counter_ns()
                self._stack.pop()
                self.self_ns[name] += end - start - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                    self._stack[-1][2] += 1
                self.spans.append((span_id, parent, self.op, name, start, end))
        return wrapper

    def _counter(self, fn, hook):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                hook(self, args, result, exc)
        return wrapper

    def install(self, mods):
        """Wrap every traced function at each of its binding sites."""
        modules = [m for name, m in sys.modules.items()
                   if name == "veilshare" or name.startswith("veilshare.")]
        for module_name, path, opens_span, hook in traced_functions(mods):
            name = f"{module_name}.{path}"
            owner = getattr(mods, module_name)
            if "." in path:                       # method or classmethod
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                is_classmethod = isinstance(original, classmethod)
                fn = original.__func__ if is_classmethod else original
                wrapped = self._span(name, fn, hook)
                setattr(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)
                self._patches.append((cls, attr, original))
                continue
            original = getattr(owner, path)
            wrapped = (self._span(name, original, hook) if opens_span
                       else self._counter(original, hook))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patches.append((module, attr, original))

    def remove(self):
        """Restore every binding the last install replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, fh):
        """Spans as JSON lines, then one line with the counters."""
        for span_id, parent, op, name, start, end in self.spans:
            fh.write(json.dumps({"phase": self.phase, "span": span_id, "parent": parent,
                                 "op": op, "name": name,
                                 "start_ns": start, "end_ns": end}) + "\n")
        fh.write(json.dumps({"phase": self.phase, "counts": dict(sorted(self.counts.items()))})
                 + "\n")
