"""Spans around calls into the package's layers, recorded from outside it.

``Tracer.instrument`` replaces each traced public function or method with
a wrapper that records a span: name, start, end, parent span and op id,
plus a letter count where one is defined.  A function imported by name
into several modules (``invert_unimodular`` lives in ``morita``,
``earle``, ``verify`` and the package namespace) is rebound everywhere
it is found, including entries of module-level dicts and lists such as
the verify suite table; a tuple that holds one is reported as escaped,
so no call leaves the trace silently.

Spans are kept in flat arrays in memory and written out by ``write``.
A layer's self time is its spans' durations minus the durations of
their direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path


def _out_len(args, result) -> int:
    return len(result)


def _arg_len(args, result) -> int:
    return len(args[0])


def _substituted(args, result) -> int:
    """Letters an endomorphism pushes before cancelling: sum of image lengths."""
    images = args[0].images
    return sum(len(images[abs(c) - 1]) for c in args[1].letters)


# span name, module, attribute ("Class.method" for methods), letter count.
# Targets missing from the package are reported with zero calls.
TARGETS = (
    ("freegroup.word", "freegroup", "FreeGroup.word", _out_len),
    ("freegroup.mul", "freegroup", "Word.__mul__", None),
    ("freegroup.conjugator", "freegroup", "conjugator", None),
    ("homology.induced_matrix", "homology", "induced_matrix", None),
    ("homology.mat_vec", "homology", "mat_vec", None),
    ("homology.det", "homology", "det", None),
    ("homology.invert_unimodular", "homology", "invert_unimodular", None),
    ("endomorphism.call", "endomorphism", "Endo.__call__", _substituted),
    ("endomorphism.certify", "endomorphism", "Auto.__init__", None),
    ("endomorphism.compose", "endomorphism", "compose", None),
    ("endomorphism.in_N", "endomorphism", "in_N", None),
    ("morita.d", "morita", "d", _arg_len),
    ("morita.f_tilde", "morita", "f_tilde", None),
    ("morita.morita_f", "morita", "morita_f", None),
    ("earle.coboundary_a0", "earle", "coboundary_a0", None),
    ("earle.earle_psi", "earle", "earle_psi", None),
    ("cli.main", "cli", "main", None),
)

LETTER_LAYERS = {t[0] for t in TARGETS if t[3] is not None}

# the verify suites, traced through the name -> function table the runner reads
SUITES = ("words", "d-function", "cocycle-n", "descent", "earle", "paper-vectors")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.op = array("q")
        self.letters = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.missing: list[str] = []
        self.escaped: list[str] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, letters=None):
        nid = len(self.names)
        self.names.append(name)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        op, counts, stack, clock = self.op, self.letters, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            op.append(self.op_id)
            counts.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if letters is not None:
                counts[idx] = letters(args, result)
            return result

        return traced

    # -- installing ---------------------------------------------------------

    def instrument(self, package) -> None:
        """Wrap every target in the loaded package and its submodules."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        swaps = {}
        for name, mod_name, attr, letters in TARGETS:
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = owner.__dict__.get(member) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            if owner_name:
                for cls in (owner, *_subclasses(owner)):
                    if member in cls.__dict__:
                        setattr(cls, member, self.wrap(name, cls.__dict__[member], letters))
            else:
                swaps[id(fn)] = self.wrap(name, fn, letters)
        verify = sys.modules.get(f"{package.__name__}.verify")
        table = getattr(verify, "SUITES", None)
        for suite in SUITES:
            fn = table.get(suite) if isinstance(table, dict) else None
            if fn is None:
                self.missing.append(f"verify.{suite}")
            else:
                swaps[id(fn)] = self.wrap(f"verify.{suite}", fn)
        # rebind every module-level name, and every entry of a module-level
        # dict or list, that holds a traced function
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in swaps:
                    setattr(mod, key, swaps[id(value)])
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if id(v) in swaps:
                            value[k] = swaps[id(v)]
                elif isinstance(value, list):
                    value[:] = [swaps.get(id(v), v) for v in value]
                elif isinstance(value, tuple) and any(id(v) in swaps for v in value):
                    self.escaped.append(f"{mod.__name__}.{key}")

    # -- results ------------------------------------------------------------

    def self_times(self) -> array:
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[idx] - self.start[idx]
        return own

    def metrics(self, ops: int) -> dict:
        """Per-layer counts and times over every span recorded so far."""
        calls = defaultdict(int)
        own = defaultdict(float)
        letters = defaultdict(int)
        has_child = set(p for p in self.parent if p >= 0)
        computed = 0
        for idx, (nid, t) in enumerate(zip(self.name_id, self.self_times())):
            name = self.names[nid]
            calls[name] += 1
            own[name] += t
            letters[name] += self.letters[idx]
            if name == "endomorphism.in_N" and idx in has_child:
                computed += 1
        out = {}
        layers = [t[0] for t in TARGETS] + [f"verify.{suite}" for suite in SUITES]
        for name in layers:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (own[name], "s")
            out[f"{name}.per_op"] = (calls[name] / ops, "calls/op")
            if name in LETTER_LAYERS:
                out[f"{name}.letters"] = (letters[name], "letters")
        in_n = calls["endomorphism.in_N"]
        out["endomorphism.in_N.computed"] = (computed, "count")
        out["endomorphism.in_N.hit_ratio"] = ((in_n - computed) / in_n if in_n else 0.0, "ratio")
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated name, start, end, parent, op (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for idx in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[idx]]}\t{self.start[idx]:.9f}\t"
                         f"{self.end[idx]:.9f}\t{self.parent[idx]}\t{self.op[idx]}\n")
