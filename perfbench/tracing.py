"""Span recorder for the traced benchmark run.

Each traced function is replaced at the module attribute its caller looks
up.  The lindrec modules import each other's functions with ``from ...
import``, so a function called from two modules is wrapped in both.  A span
is (id, parent id, job, name, start, end); spans stay in memory until the
run writes them out.  Counters are updated at the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name); the span name is the layer and function.
# Functions no metric reports are wrapped too, so that their time is not
# counted as self time of their caller.
SITES = (
    ("lindrec.cli", "run_experiment", "cli.run_experiment"),
    ("lindrec.cli", "write_json", "cli.write"),
    ("lindrec.cli", "write_csv", "cli.write"),
    ("lindrec.models", "build_model", "models.build_model"),
    ("lindrec.models", "analytic_kernel_vectors", "models.analytic_kernel_vectors"),
    ("lindrec.models", "collective_steady_state", "models.collective_steady_state"),
    ("lindrec.models", "coherent_state", "quantum_ops.states"),
    ("lindrec.models", "squeezed_vacuum", "quantum_ops.states"),
    ("lindrec.models", "spin_ops", "quantum_ops.states"),
    ("lindrec.cli", "coherent_state", "quantum_ops.states"),
    ("lindrec.cli", "reverse_engineer", "engine.reverse_engineer"),
    ("lindrec.cli", "rapidity", "engine.rapidity"),
    ("lindrec.cli", "markovian_superposition_search", "engine.markovian_superposition_search"),
    ("lindrec.cli", "markovian_postselect", "engine.markovian_postselect"),
    ("lindrec.cli", "repair_markovianity", "engine.repair_markovianity"),
    ("lindrec.cli", "unpack_kernel_vector", "engine.unpack_kernel_vector"),
    ("lindrec.engine", "unpack_kernel_vector", "engine.unpack_kernel_vector"),
    ("lindrec.engine", "build_correlation_matrix", "engine.build_correlation_matrix"),
    ("lindrec.engine", "term_images", "engine.term_images"),
    ("lindrec.engine", "apply_lindbladian", "engine.apply_lindbladian"),
    ("lindrec.models", "apply_lindbladian", "engine.apply_lindbladian"),
    ("lindrec.engine", "physical_gauge_basis", "engine.physical_gauge_basis"),
    ("lindrec.engine", "extract_kernel", "numerics.extract_kernel"),
    ("lindrec.engine", "positive_part", "numerics.positive_part"),
    ("lindrec.numerics", "eigh", "numerics.eigh"),
    ("lindrec.cli", "loglog_fit", "numerics.loglog_fit"),
    ("lindrec.cli", "steady_state_of", "verification.steady_state_of"),
    ("lindrec.cli", "norm_difference", "verification.norm_difference"),
    ("lindrec.verification", "vectorize_liouvillian", "verification.vectorize_liouvillian"),
    ("numpy.linalg", "svd", "numpy.linalg.svd"),
    ("numpy.linalg", "solve", "numpy.linalg.solve"),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "numpy.linalg.eigvalsh"),
    ("numpy.linalg", "qr", "numpy.linalg.qr"),
    ("numpy.linalg", "lstsq", "numpy.linalg.lstsq"),
)


def _linalg_flops(name: str, args: tuple, kwargs: dict) -> float:
    """Real floating-point operations of a LAPACK call, from its matrix size.

    Square n x n counts (Golub and Van Loan): full SVD 21 n^3, values-only
    SVD 8/3 n^3, LU solve 2/3 n^3 + 2 n^2 per right-hand side, symmetric
    eigensolver 9 n^3 with vectors and 4/3 n^3 without.  A complex matrix
    counts four times, a stack of matrices once per matrix.
    """
    a = np.asarray(args[0])
    n = a.shape[-1]
    if name == "svd":
        compute_uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
        flops = 21.0 * n**3 if compute_uv else 8.0 / 3.0 * n**3
    elif name == "solve":
        b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
        nrhs = 1 if b.ndim == 1 else b.shape[-1]
        flops = 2.0 / 3.0 * n**3 + 2.0 * n**2 * nrhs
    elif name == "eigh":
        flops = 9.0 * n**3
    elif name == "eigvalsh":
        flops = 4.0 / 3.0 * n**3
    else:
        return 0.0
    batch = math.prod(a.shape[:-2])
    return flops * batch * (4.0 if np.iscomplexobj(a) else 1.0)


def _observe(tracer: "Tracer", name: str, args: tuple, kwargs: dict, result, ok: bool):
    counts = tracer.counts
    if name.startswith("numpy.linalg."):
        counts["numpy.linalg.flops"] += _linalg_flops(name.rsplit(".", 1)[1], args, kwargs)
    elif name == "verification.vectorize_liouvillian":
        d = args[1].dim if len(args) > 1 else kwargs["ansatz"].dim
        counts["verification.superop_bytes"] += 16 * d**4
    elif name == "verification.steady_state_of" and ok:
        method = args[2] if len(args) > 2 else kwargs.get("method", "svd")
        if method == "lu" and result.method == "svd":
            counts["verification.lu_fallbacks"] += 1
        if result.unique:
            counts["verification.unique"] += 1
    elif name == "engine.unpack_kernel_vector" and ok:
        counts["engine.unpack_admissible"] += 1
    elif name == "cli.write":
        path = args[0]
        size = os.stat(path).st_size
        if len(args) > 1 and isinstance(args[1], dict) and "meta" in args[1]:
            # the wall-clock block varies in length from run to run; its own
            # serialization holds the same variable fields, so the difference
            # is deterministic
            size -= len(json.dumps(args[1]["meta"], sort_keys=True, indent=2))
        counts["cli.report_bytes"] += size


class Tracer:
    """Installs the wrappers, records spans and counters, and removes them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._installed: list[tuple] = []

    def install(self):
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, func, name):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, tracer.job, name, start, end))
                _observe(tracer, name, args, kwargs, result, ok)

        return traced

    def take(self) -> tuple[list[tuple], Counter]:
        """Spans and counters recorded since the last call, and reset both."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_times(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: busy time ``s``, self time ``self_s`` and ``calls``.

    Busy time is the union of the name's span intervals; self time subtracts
    the direct children, which run one after another in this single thread.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)
    out = {}
    for name, group in by_name.items():
        busy, reach = 0.0, -math.inf
        for _, _, _, _, start, end in sorted(group, key=lambda s: s[4]):
            if end > reach:
                busy += end - max(start, reach)
                reach = end
        self_s = sum(end - start - child_time[sid] for sid, _, _, _, start, end in group)
        out[name] = {"s": busy, "self_s": self_s, "calls": len(group)}
    return out


# per-layer metrics reported from the spans: (span name, field)
TIMED = (
    ("verification.steady_state_of", "s"),
    ("verification.steady_state_of", "self_s"),
    ("verification.steady_state_of", "calls"),
    ("verification.vectorize_liouvillian", "s"),
    ("verification.vectorize_liouvillian", "calls"),
    ("numpy.linalg.svd", "s"),
    ("numpy.linalg.svd", "calls"),
    ("numpy.linalg.solve", "s"),
    ("numpy.linalg.solve", "calls"),
    ("models.build_model", "s"),
    ("models.build_model", "calls"),
    ("models.collective_steady_state", "s"),
    ("quantum_ops.states", "s"),
    ("engine.reverse_engineer", "s"),
    ("engine.reverse_engineer", "calls"),
    ("engine.term_images", "s"),
    ("engine.term_images", "calls"),
    ("engine.build_correlation_matrix", "self_s"),
    ("numerics.extract_kernel", "s"),
    ("numerics.extract_kernel", "calls"),
    ("engine.markovian_superposition_search", "s"),
    ("engine.markovian_superposition_search", "calls"),
    ("engine.rapidity", "s"),
    ("engine.rapidity", "calls"),
    ("engine.unpack_kernel_vector", "calls"),
    ("cli.run_experiment", "self_s"),
    ("cli.write", "s"),
)


def layer_metrics(spans: list[tuple], counts: Counter, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds."""
    times = layer_times(spans)

    def get(name: str, field: str) -> float:
        return times.get(name, {}).get(field, 0)

    metrics = {f"{name}.{field}": get(name, field) for name, field in TIMED}
    ss_calls = get("verification.steady_state_of", "calls")
    unpack_calls = get("engine.unpack_kernel_vector", "calls")
    metrics.update({
        "verification.steady_state_of.lu_fallbacks": counts["verification.lu_fallbacks"],
        "verification.unique_ratio": counts["verification.unique"] / ss_calls if ss_calls else 0.0,
        "verification.superop_bytes": counts["verification.superop_bytes"],
        "numpy.linalg.eigh.calls": get("numpy.linalg.eigh", "calls")
        + get("numpy.linalg.eigvalsh", "calls"),
        "numpy.linalg.gflop_computed": counts["numpy.linalg.flops"] / 1e9,
        "engine.unpack_kernel_vector.admissible_ratio": (
            counts["engine.unpack_admissible"] / unpack_calls if unpack_calls else 0.0
        ),
        "cli.report_bytes": counts["cli.report_bytes"],
        "trace.coverage": get("cli.run_experiment", "s") / wall,
    })
    return metrics


def top_self_times(spans: list[tuple], n: int = 5) -> list[tuple[str, float]]:
    """The ``n`` span names with the largest self time."""
    times = layer_times(spans)
    ranked = sorted(times.items(), key=lambda item: item[1]["self_s"], reverse=True)
    return [(name, entry["self_s"]) for name, entry in ranked[:n]]
