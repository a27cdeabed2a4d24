"""Span tracing of pdmosc's layers from outside the package.

``Tracer.install`` replaces each traced function at every name its callers
look up (``oscillator.gegenbauer_poly``, ``rosen_morse.ln_gamma``,
``oracle.eigenvalues_sturm``, ...) with a wrapper that records a span: name,
start, end, parent span and job id.  Spans stay in memory in flat arrays
until ``save`` writes them out.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from pdmosc import cli, oracle, oscillator, pct, rosen_morse, special_fn

MODULES = (cli, oracle, oscillator, pct, rosen_morse, special_fn)

# span name -> the functions it covers, by defining module and name
LAYERS = {
    "cli.main": [(cli, "main")],
    "pct.map_parameters": [(pct, "map_parameters")],
    "pct.mass": [(pct, "mass")],
    "oscillator.wavefunction": [(oscillator, "wavefunction")],
    "oscillator.energy": [(oscillator, "energy")],
    "oscillator.num_bound_states": [(oscillator, "num_bound_states")],
    "oscillator.jafarov_case": [(oscillator, "jafarov_case")],
    "rosen_morse.rm_energy": [(rosen_morse, "rm_energy")],
    "rosen_morse.rm_potential": [(rosen_morse, "rm_potential")],
    "rosen_morse.rm_wavefunction": [(rosen_morse, "rm_wavefunction")],
    "special_fn.ln_gamma": [(special_fn, "ln_gamma")],
    "special_fn.poly": [(special_fn, "jacobi_poly"), (special_fn, "gegenbauer_poly")],
    "special_fn.gauss_legendre": [(special_fn, "gauss_legendre")],
    "oracle.eigenvalues_sturm": [(oracle, "eigenvalues_sturm")],
    "oracle.discretize_bdd": [(oracle, "discretize_bdd")],
    "oracle.solve_pdm_numeric": [(oracle, "solve_pdm_numeric")],
    "oracle.eigenvector": [(oracle, "eigenvector")],
    "oracle.overlap": [(oracle, "overlap")],
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.sturm_levels = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, ix: int, fn):
        start, end, name, parent, job, stack = (
            self.start, self.end, self.name, self.parent, self.job, self._stack
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(ix)
            parent.append(stack[-1])
            job.append(tracer.job_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def _wrap_sturm(self, ix: int, fn):
        traced = self._wrap(ix, fn)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = traced(*args, **kwargs)
            tracer.sturm_levels += len(out)
            return out

        return counted

    def install(self) -> None:
        for ix, label in enumerate(self.names):
            for owner, attr in LAYERS[label]:
                fn = getattr(owner, attr)
                wrap = self._wrap_sturm if label == "oracle.eigenvalues_sturm" else self._wrap
                wrapped = wrap(ix, fn)
                for mod in MODULES:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._saved.append((mod, key, val))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, val in reversed(self._saved):
            setattr(mod, key, val)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the recorded spans; no span can be recorded while they are alive."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
        }

    def mark(self) -> int:
        """Index of the next span, to delimit a pass for ``totals``."""
        return len(self.start)

    def totals(self, lo: int, hi: int, s: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(calls, self seconds) per span name over spans lo..hi-1, in ``names`` order.

        Spans of one pass have their parents in the same pass.  ``s`` is a
        result of ``arrays()`` to reuse.
        """
        s = self.arrays() if s is None else s
        name = s["name"][lo:hi]
        dur = s["end"][lo:hi] - s["start"][lo:hi]
        parent = s["parent"][lo:hi]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent] - lo, weights=dur[has_parent], minlength=hi - lo)
        k = len(self.names)
        return (
            np.bincount(name, minlength=k),
            np.bincount(name, weights=dur - child, minlength=k),
        )

    def save(self, path, t0: float, s: dict | None = None) -> None:
        """Write the spans, with times in seconds from t0, to a compressed .npz file."""
        s = self.arrays() if s is None else s
        np.savez_compressed(path, names=np.array(self.names), **dict(
            s, start=s["start"] - t0, end=s["end"] - t0))
