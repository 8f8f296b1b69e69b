"""Outside-in tracing of the coinv modules, and the call-count cross-check.

A traced pass replaces the public functions of every working module of
``coinv`` (plus the few public methods the per-layer metrics name) with a
wrapper that records one span per call: name, start, end, parent span,
job id and, for some names, a size of the result.  Nothing under ``src/``
changes.  The wrapper goes in at every binding site: the defining module,
every module that imported the function by name (``glaction`` imports
``antisymmetrize``, ``eps_nu`` and ``exact_divide`` that way), the package
namespace, and class aliases such as ``Poly.__rmul__ = Poly.__mul__``.

A profile pass installs nothing and counts calls to the same code objects
with ``sys.setprofile``; its counts must equal the wrappers' counts, which
shows that no binding site was missed.

Generator functions (``compositions_of``, ``partitions_of``) get a span
for the call that creates the generator only; the work of iterating it
is self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "shapes", "polynomials", "tableaux", "quotients", "glaction", "traces")

# public methods traced besides the module-level functions
METHODS = {
    "polynomials": {"Poly": ("__mul__", "__add__")},
    "quotients": {
        "QuotientPresentation": (
            "dim", "hilbert", "graded_dim", "graded_basis", "normal_form", "contains",
        ),
    },
    "glaction": {"WeightFamily": ("apply",)},
}


class Target:
    """One traced callable: span name (``layer.function``) and the original function."""

    __slots__ = ("name", "fn", "generator")

    def __init__(self, name: str, fn):
        self.name = name
        self.fn = fn
        self.generator = inspect.isgeneratorfunction(fn)


def targets() -> list:
    """Everything traced, in a fixed order, from the imported coinv modules."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"coinv.{layer}")
        for name, obj in sorted(vars(mod).items()):
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out.append(Target(f"{layer}.{name}", obj))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for m in methods:
                out.append(Target(f"{layer}.{cls_name}.{m}", cls.__dict__[m]))
    return out


def _binding_sites():
    """(namespace owner, namespace dict) for every coinv module and class."""
    for name, mod in sorted(sys.modules.items()):
        if name != "coinv" and not name.startswith("coinv."):
            continue
        yield mod, vars(mod)
        for obj in list(vars(mod).values()):
            if inspect.isclass(obj) and obj.__module__ == name:
                yield obj, obj.__dict__


# ----------------------------------------------------------------------
# spans


class Recorder:
    """Spans kept in flat typed arrays; one index per call."""

    def __init__(self, names: list):
        self.names = names
        self.name_id = array("H")
        self.job = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.out = array("q")
        self.stack = [-1]
        self.job_id = 0

    def __len__(self) -> int:
        return len(self.name_id)


def _result_size(name: str):
    """What a span records about its result, for the names whose metrics need it."""
    if name == "polynomials.Poly.__mul__":
        return lambda r: len(r.terms)
    if name in ("tableaux.enumerate_column_strict", "tableaux.enumerate_semistandard"):
        return len
    if name == "quotients.presentation":
        seen: dict = {}

        def first_sight(r) -> int:
            # keeps every result alive, so no later object can reuse its id
            if id(r) in seen:
                return 0
            seen[id(r)] = r
            return 1

        return first_sight
    return None


def _wrap(rec: Recorder, nid: int, fn, size):
    name_id, job, parent = rec.name_id, rec.job, rec.parent
    start, end, out, stack = rec.start, rec.end, rec.out, rec.stack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = len(name_id)
        name_id.append(nid)
        job.append(rec.job_id)
        parent.append(stack[-1])
        start.append(0.0)
        end.append(0.0)
        out.append(0)
        stack.append(idx)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            start[idx] = t0
            end[idx] = t1
        if size is not None:
            out[idx] = size(result)
        return result

    return traced


def install(tgts: list) -> tuple:
    """Wrap every target at every binding site; returns (recorder, sites per name)."""
    rec = Recorder([t.name for t in tgts])
    wrappers = {
        id(t.fn): (t.fn, nid, _wrap(rec, nid, t.fn, _result_size(t.name)))
        for nid, t in enumerate(tgts)
    }
    sites = [0] * len(tgts)
    for owner, namespace in list(_binding_sites()):
        for attr, value in list(namespace.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, attr, hit[2])
                sites[hit[1]] += 1
    return rec, {t.name: k for t, k in zip(tgts, sites)}


def summarize(rec: Recorder) -> dict:
    """Per-name calls, self time and result sizes; per-job self time by layer.

    Self time is a span's duration minus the durations of its child
    spans, which never overlap because every call here is synchronous.
    """
    n = len(rec)
    names = rec.names
    start, end, parent, name_id = rec.start, rec.end, rec.parent, rec.name_id
    child = array("d", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    out = [0] * len(names)
    layer_of = [name.split(".", 1)[0] for name in names]
    by_job: dict = {}
    semistandard = names.index("tableaux.enumerate_semistandard")
    column_strict = names.index("tableaux.enumerate_column_strict")
    kept_base = 0
    for i in range(n):
        nid = name_id[i]
        own = end[i] - start[i] - child[i]
        calls[nid] += 1
        self_s[nid] += own
        out[nid] += rec.out[i]
        per_layer = by_job.setdefault(rec.job[i], {})
        layer = layer_of[nid]
        per_layer[layer] = per_layer.get(layer, 0.0) + own
        p = parent[i]
        if nid == column_strict and p >= 0 and name_id[p] == semistandard:
            kept_base += rec.out[i]
    return {
        "spans": n,
        "names": {
            name: [calls[k], self_s[k], out[k]]
            for k, name in enumerate(names)
            if calls[k]
        },
        "semistandard_from": kept_base,
        "jobs": by_job,
    }


# ----------------------------------------------------------------------
# the cross-check


def count_calls(tgts: list, run) -> dict:
    """Calls to each target's code object while ``run()`` executes, via ``sys.setprofile``.

    A generator frame raises a call event each time it resumes; it is
    counted once, at its first resumption, to match the wrapper, which
    sees the call that creates it.
    """
    index = {t.fn.__code__: k for k, t in enumerate(tgts)}
    generators = {t.fn.__code__ for t in tgts if t.generator}
    counts = [0] * len(tgts)
    started: dict = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            k = index.get(code)
            if k is not None:
                if code in generators:
                    if id(frame) in started:
                        return
                    started[id(frame)] = frame  # kept alive: ids stay unique
                counts[k] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {t.name: c for t, c in zip(tgts, counts) if c}
