"""In-memory spans around the package's public functions.

`install` replaces each traced function at every module binding a caller can
look it up through (`reduction.measure_factor` and `polar.measure_factor`
are separate bindings of one function), so the program itself is unchanged.
Each span keeps its name, start, end, parent span and operation id; they are
written out once, when the run ends.

A span's self time is its duration minus the part of that interval its
children cover, generalised to threads: every instant of an operation is
charged to the most recently opened span still open.  With one
thread that is exactly duration minus children; with the grid's thread pool
the charges still sum to the operation's wall time, but how time splits
between concurrent spans depends on scheduling.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import weakref
from array import array

PACKAGE = "bcn_reduction"
ROOT_SPAN = "bench.op"

#: traced functions by layer, named <module>.<qualname> in the package
LAYERS = {
    "basis": ("polar.build_m_basis", "polar.build_kperp_basis"),
    "admissibility": ("reduction.vk_predicted", "reduction.vk_bruteforce",
                      "reduction.enumerate_grid", "reduction.couplings",
                      "reduction.params_from_raw"),
    "spin": ("reduction.SpinContraction.__init__", "reduction.rho_prime_pair",
             "fock.gl_matrix", "fock.gl_action", "fock.fock_space"),
    "sample": ("polar.sample_alcove", "polar.inertia_eigenvalues",
               "polar.measure_factor", "reduction.bc_potential",
               "reduction.SpinContraction.at", "reduction.verify_reduction"),
    "cli": ("cli.main", "cli.write_report"),
}
TRACED = tuple(name for names in LAYERS.values() for name in names)


class Recorder:
    """Spans and self times of one process; safe to use from several threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self._open: list[int] = []  # open span ids, oldest first
        self._last = 0
        self.current_op = -1
        self.counters: dict[str, int] = {}
        self.hook_lock = threading.Lock()

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            nid = self._intern(name)
            now = time.perf_counter_ns()
            if self._open:
                top = self._open[-1]
                self.self_ns[self.name_id[top]] += now - self._last
                parent = stack[-1] if stack else top
            else:
                parent = -1
            self._last = now
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.current_op)
            self.start.append(now)
            self.end.append(0)
            self.calls[nid] += 1
            self._open.append(sid)
        stack.append(sid)
        return sid

    def finish(self, sid: int) -> None:
        with self._lock:
            now = time.perf_counter_ns()
            top = self._open[-1]
            self.self_ns[self.name_id[top]] += now - self._last
            self._last = now
            self.end[sid] = now
            if top == sid:
                self._open.pop()
            else:
                self._open.remove(sid)
        self._local.stack.pop()

    def count(self, name: str, value: int, use_max: bool = False) -> None:
        old = self.counters.get(name, 0)
        self.counters[name] = max(old, value) if use_max else old + value

    def self_s(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def calls_of(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, path: str) -> None:
        """One tab-separated line per span: op, id, parent, name, start and
        end in nanoseconds."""
        with open(path, "w") as fh:
            fh.write("op\tid\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                fh.write(f"{self.op[sid]}\t{sid}\t{self.parent[sid]}\t"
                         f"{self.names[self.name_id[sid]]}\t{self.start[sid]}\t"
                         f"{self.end[sid]}\n")


def _wrap(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(sid)
        if after is not None:
            with rec.hook_lock:
                after(args, kwargs, result)
        return result

    return traced


def _counter_hooks(rec: Recorder) -> dict:
    built = weakref.WeakSet()

    def fock_space(args, kwargs, space):
        rec.count("fock.dim_max", space.dim, use_max=True)
        if space not in built:  # a new object: the space was built
            built.add(space)
            rec.count("fock.states_built", space.dim)

    def kperp(args, kwargs, basis):
        rec.count("polar.kperp_dim_max", len(basis), use_max=True)

    def verify(args, kwargs, report):
        rec.count("reduction.samples", len(report.samples))

    def write_report(args, kwargs, result):
        path = kwargs.get("json_path", args[1] if len(args) > 1 else None)
        if path:
            rec.count("cli.report_bytes", os.path.getsize(path))

    return {"fock.fock_space": fock_space,
            "polar.build_kperp_basis": kperp,
            "reduction.verify_reduction": verify,
            "cli.write_report": write_report}


def install(rec: Recorder) -> dict:
    """Wrap every traced function that exists; returns the originals by name.

    A name a later version of the package no longer defines is skipped and
    reports zero calls.
    """
    hooks = _counter_hooks(rec)
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    originals = {}
    for name in TRACED:
        modname, *path = name.split(".")
        owner = importlib.import_module(f"{PACKAGE}.{modname}")
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
        orig = getattr(owner, path[-1], None) if owner is not None else None
        if orig is None:
            continue
        originals[name] = orig
        wrapped = _wrap(rec, name, orig, hooks.get(name))
        if len(path) > 1:  # a method: the class is the one binding
            setattr(owner, path[-1], wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    return originals
