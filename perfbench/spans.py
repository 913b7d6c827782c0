"""In-memory span tracing of the edapinn modules, installed from outside.

``Tracer.install()`` replaces every public function (and every public method
of a class) defined in an edapinn module with a wrapper that records one span
per call: (id, name, start_ns, end_ns, parent id, thread). The wrapper is
written into every binding the package's callers actually use, so a call
made through ``ad.affine_forward``, through a ``from .data import load_csv``
name or through the ``suites.ALL_SUITES`` tuple is seen alike. ``uninstall()``
restores the original objects. Spans stay in memory until ``write()``.

Parents are tracked per thread, so a span's self time (its duration minus
that of its direct children) is computed within one thread and the worker
threads of a parallel k-fold are never counted against each other. A thread
blocked on others (run_kfold waiting for its fold threads) counts that
wait as its own self time. Calls made inside other processes are not seen.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

SPAN_FIELDS = 6
MODULES = (
    "autodiff",
    "rng",
    "model",
    "objective",
    "trainer",
    "data",
    "evaluation",
    "baselines",
    "reporting",
    "gradcheck",
    "suites",
    "config",
    "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # flat records of SPAN_FIELDS int64 values each, compact enough to
        # keep every span of a run in memory
        self.spans = array("q")
        self._ids = itertools.count()
        self._threads = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- instrumentation --------------------------------------------------

    def _wrap(self, fn, name: str):
        name_idx = len(self.names)
        self.names.append(name)
        spans, ids, threads, local = self.spans, self._ids, self._threads, self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.thread = next(threads)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, name_idx, t0, t1, parent, local.thread))

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and methods of every module in MODULES."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"edapinn.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(fn, f"{short}.{attr}.{meth}"))
        # rebind every module-level name (and tuple/list of functions) that
        # refers to an original, in all edapinn modules including the package
        package = importlib.import_module("edapinn")
        for mod in [package, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, (tuple, list)) and any(id(o) in wrapped for o in obj):
                    self._set(mod, attr, type(obj)(wrapped.get(id(o), o) for o in obj))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def records(self):
        """(id, name index, start_ns, end_ns, parent id or -1, thread index)."""
        s = self.spans
        return zip(*(s[i::SPAN_FIELDS] for i in range(SPAN_FIELDS)))

    def __len__(self) -> int:
        return len(self.spans) // SPAN_FIELDS

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: id,name,start_ns,end_ns,parent,thread."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,thread\n")
            for sid, ni, t0, t1, parent, th in self.records():
                fh.write(f"{sid},{self.names[ni]},{t0},{t1},{parent},{th}\n")

    def summary(self) -> dict:
        """Per-name call counts and inclusive time; per-thread module self time."""
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, _ni, t0, t1, parent, _th in self.records():
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        self_ns: dict[tuple[int, str], int] = defaultdict(int)
        threads = set()
        for sid, ni, t0, t1, _parent, th in self.records():
            name = self.names[ni]
            calls[name] += 1
            total_ns[name] += t1 - t0
            threads.add(th)
            self_ns[(th, name.split(".", 1)[0])] += t1 - t0 - child_ns.get(sid, 0)
        module_self_s: dict[str, float] = defaultdict(float)
        by_thread: dict[str, dict[str, float]] = defaultdict(dict)
        for (th, module), ns in sorted(self_ns.items()):
            module_self_s[module] += ns * 1e-9
            by_thread[str(th)][module] = ns * 1e-9
        return {
            "calls": dict(calls),
            "total_s": {k: v * 1e-9 for k, v in total_ns.items()},
            "module_self_s": dict(module_self_s),
            "module_self_s_by_thread": dict(by_thread),
            "threads": len(threads),
        }
