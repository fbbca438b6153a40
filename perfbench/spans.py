"""Span recorder for the traced run, kept entirely on the benchmark side.

``Tracer.install`` wraps the public functions and methods of the neumannlab
layer modules, plus the scipy factor, triangular-solve and Krylov entry
points as the ``solve`` module reaches them.  ``uninstall`` puts every
original back, so untraced jobs run the unmodified program.  A span is
``[name, start, end, parent index, job id, info]``; spans stay in memory
until the run writes them out.  A span's self time is its duration minus the
durations of its direct children; the program is single-threaded, so the
children of one span never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

import numpy as np
import scipy.sparse.linalg as spla

LAYERS = ("mesh", "coeff", "discretize", "solve", "kernel", "estimates", "oracle", "cli")
#: dunder methods worth a span; other underscore names are private.
_TRACED_DUNDERS = ("__init__", "__call__")
_KRYLOV = ("cg", "gmres", "minres")


def _n_points(points):
    return 1 if np.ndim(points) == 1 else len(points)


def _rhs_columns(b):
    return 1 if np.ndim(b) == 1 else int(np.shape(b)[1])


# Per-span info taken from the call's arguments and result; each is O(1).
_INFO = {
    "mesh.Mesh.locate": lambda args, out: {"points": _n_points(args[1])},
    "coeff.CoefficientField.evaluate": lambda args, out: {"points": _n_points(args[1])},
    "discretize.assemble_stiffness": lambda args, out: {"nnz": int(out.matrix.nnz)},
    "solve.NeumannSolver.solve_bounded": lambda args, out: {"residual": float(out[1].residual)},
    "solve.NeumannSolver.solve_graph": lambda args, out: {"residual": float(out[1].residual)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------
    def open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if info is not None:
                rec[5] = info(args, out)
            return out

        return traced

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's public callables wherever neumannlab refers to them."""
        package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "neumannlab"]
        for layer in LAYERS:
            mod = importlib.import_module(f"neumannlab.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    for owner in package:
                        for ref, value in list(vars(owner).items()):
                            if value is obj:
                                self._set(owner, ref, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        self._wrap_scipy(importlib.import_module("neumannlab.solve"))

    def _wrap_methods(self, layer, cls):
        for attr, meth in list(vars(cls).items()):
            if not inspect.isfunction(meth):
                continue  # properties, static and class methods
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue  # generated field assignment, not layer work
            self._set(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{attr}", meth))

    def _wrap_scipy(self, solve_mod):
        """Give ``solve`` traced scipy entry points, however it imported them."""
        traced = {"splu": self._traced_splu(spla.splu)}
        for name in _KRYLOV:
            traced[name] = self._traced_krylov(name, getattr(spla, name))
        proxy = _LinalgProxy(traced)
        for ref, value in list(vars(solve_mod).items()):
            if value is spla:
                self._set(solve_mod, ref, proxy)
            for name, fn in traced.items():
                if value is getattr(spla, name):
                    self._set(solve_mod, ref, fn)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _traced_splu(self, splu):
        @functools.wraps(splu)
        def traced(*args, **kwargs):
            rec = self.open("solve.splu")
            try:
                lu = splu(*args, **kwargs)
            finally:
                self.close(rec)
            rec[5] = {"lu_nnz": int(lu.nnz)}
            return _TracedLU(lu, self)

        return traced

    def _traced_krylov(self, name, solver):
        @functools.wraps(solver)
        def traced(A, b, *args, **kwargs):
            count = [0]
            user_cb = kwargs.get("callback")

            def counting(*cb_args):
                count[0] += 1
                if user_cb is not None:
                    user_cb(*cb_args)

            kwargs["callback"] = counting
            rec = self.open(f"solve.{name}")
            try:
                out = solver(A, b, *args, **kwargs)
            finally:
                self.close(rec)
            info = {"iterations": count[0], "bytes_computed": 0}
            if hasattr(A, "indices"):  # sparse matrix: one matvec streams values + indices
                per_matvec = A.nnz * (A.data.itemsize + A.indices.itemsize)
                info["bytes_computed"] = count[0] * per_matvec
            rec[5] = info
            return out

        return traced


class _LinalgProxy:
    """scipy.sparse.linalg with some entry points replaced."""

    def __init__(self, replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(spla, name)


class _TracedLU:
    """SuperLU factor whose ``solve`` records a span; other attributes pass through."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        rec = self._tracer.open("solve.SuperLU.solve")
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer.close(rec)
            rec[5] = {"rhs": _rhs_columns(rhs)}

    def __getattr__(self, name):
        return getattr(self._lu, name)


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out
