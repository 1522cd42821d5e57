"""Spans and counts at the public boundaries of the bicyclic modules.

The tracer wraps each listed function at every attribute it is reachable
through (a module global imported by name, the package namespace, or a
class slot such as ``Poly2.__call__``), so callers inside the package hit the
wrapper no matter how they look the function up.  ``restore`` puts the
originals back.

Each wrapped call records a span (name, parent span, op id, start, end,
raised) in flat arrays; self time is derived afterwards as the span's
duration minus the durations of its direct children, which cover disjoint
sub-intervals because the program is single-threaded.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_eval_points(c, args, kwargs, result):
    z1 = np.asarray(_arg(args, kwargs, 1, "z1"))
    z2 = np.asarray(_arg(args, kwargs, 2, "z2"))
    c["poly2.eval.points"] += np.broadcast(z1, z2).size


def _count_batched_rows(c, args, kwargs, result):
    c["roots.slices"] += len(result)


def _count_low_first(c, args, kwargs, result):
    c["roots.slices"] += 1


def _count_candidates(c, args, kwargs, result):
    c["stability.torus.candidates"] += result.candidates_checked


def _count_basis(c, args, kwargs, result):
    N = _arg(args, kwargs, 2, "degree_cap")
    c["dirichlet.approximant.basis_sum"] += (N + 1) * (N + 2) // 2


def _count_trace_nodes(c, args, kwargs, result):
    c["curvegeom.trace.nodes"] += _arg(args, kwargs, 2, "nodes")


def _count_modes(c, args, kwargs, result):
    mu = _arg(args, kwargs, 0, "mu")
    K = _arg(args, kwargs, 1, "K")
    c["capacity.fourier.modes"] += (2 * K + 1) ** 2 * mu.branch.t.size


def _count_lattice(c, args, kwargs, result):
    c["capacity.cofactor.lattice_points"] += _arg(args, kwargs, 4, "grid") ** 2


def _count_cli_bytes(c, args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv"))
    out = argv[argv.index("--out") + 1]
    c["cli.bytes_written"] += sum(e.stat().st_size for e in os.scandir(out))


# (span name, module, attribute, counter).  A dotted attribute names a class
# slot; the span name's first component is the layer.
TARGETS = [
    ("poly2.resultant", "poly2", "sylvester_resultant_z2", None),
    ("poly2.reflection_match", "poly2", "unimodular_reflection_match", None),
    ("poly2.eval", "poly2", "Poly2.__call__", _count_eval_points),
    ("poly2.mul", "poly2", "Poly2.__mul__", None),
    ("roots.batched", "_roots", "batched_roots", _count_batched_rows),
    ("roots.low_first", "_roots", "roots_low_first", _count_low_first),
    ("roots.newton_polish", "_roots", "newton_polish", None),
    ("stability.scan", "stability", "bidisk_zero_scan", None),
    ("stability.torus", "stability", "torus_zero_classification", _count_candidates),
    ("dirichlet.approximant", "dirichlet", "optimal_approximant", _count_basis),
    ("dirichlet.profile", "dirichlet", "distance_profile", None),
    ("curvegeom.trace", "curvegeom", "trace_branch", _count_trace_nodes),
    ("curvegeom.type", "curvegeom", "curve_type_at", None),
    ("capacity.fourier", "capacity", "fourier_coefficients", _count_modes),
    ("capacity.energy", "capacity", "riesz_energy", None),
    ("capacity.certificate", "capacity", "noncyclicity_certificate", None),
    ("capacity.cofactor", "capacity", "cofactor_experiment", _count_lattice),
    ("detrep.from_unitary", "detrep", "polynomial_from_unitary", None),
    ("classifier.classify", "classifier", "classify", None),
    ("classifier.evidence", "classifier", "classify_with_evidence", None),
    ("cli.run", "cli", "run", _count_cli_bytes),
]

LAYERS = ["poly2", "roots", "stability", "dirichlet", "detrep", "curvegeom",
          "capacity", "classifier", "cli"]

# Spans whose call counts and self times are reported one by one; the two
# root solvers are reported together as roots.self_ms next to roots.slices.
REPORTED_SPANS = [name for name, *_ in TARGETS
                  if name not in ("roots.batched", "roots.low_first")]
ROOT_SOLVER_SPANS = ("roots.batched", "roots.low_first")
COUNTERS = ["poly2.eval.points", "roots.slices", "stability.torus.candidates",
            "dirichlet.approximant.basis_sum", "curvegeom.trace.nodes",
            "capacity.fourier.modes", "capacity.cofactor.lattice_points",
            "cli.bytes_written"]
OP_SPAN = "bench.op"


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names = [OP_SPAN] + [name for name, *_ in TARGETS]
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.counters = Counter()
        self._stack = [-1]
        self._op = -1
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0)
        self.raised.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int, raised: bool) -> None:
        self.end[sid] = time.perf_counter_ns()
        self.raised[sid] = raised
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self._open(0)

    def end_op(self, sid: int) -> None:
        self._close(sid, False)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn, count):
        name_id = self._name_id[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, True)
                raise
            tracer._close(sid, False)
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "bicyclic") -> None:
        """Wrap every target at every attribute that refers to it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for name, mod, attr, count in TARGETS:
            owner = sys.modules[f"{package}.{mod}"]
            if "." in attr:
                cls_name, slot = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[slot]
                wrapped = self._wrap(name, original, count)
                for key, value in list(cls.__dict__.items()):
                    if value is original:   # e.g. __rmul__ = __mul__
                        self._patches.append((cls, key, original))
                        setattr(cls, key, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapped)

    def restore(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times_ns(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def layer_metrics(self) -> dict:
        """Per-span calls and self_ms, named counters, and per-layer errors."""
        names = np.frombuffer(self.name, dtype=np.int32)
        raised = np.frombuffer(self.raised, dtype=np.int8)
        self_ms = self.self_times_ns() / 1e6
        calls = np.bincount(names, minlength=len(self.names))
        self_sum = np.bincount(names, weights=self_ms, minlength=len(self.names))
        errors = np.bincount(names, weights=raised, minlength=len(self.names))
        idx = self._name_id
        out = {}
        for span in REPORTED_SPANS:
            out[f"{span}.calls"] = (int(calls[idx[span]]), "count")
            out[f"{span}.self_ms"] = (float(self_sum[idx[span]]), "ms")
        out["roots.self_ms"] = (float(sum(self_sum[idx[s]] for s in ROOT_SOLVER_SPANS)), "ms")
        for counter in COUNTERS:
            out[counter] = (int(self.counters[counter]), "count")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (int(sum(errors[idx[s]] for s in self.names[1:]
                                              if s.split(".")[0] == layer)), "count")
        return out

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated row, one per line."""
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\traised\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}"
                         f"\t{self.start[i]}\t{self.end[i]}\t{self.raised[i]}\n")
