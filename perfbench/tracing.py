"""Span tracing installed from outside the package.

``Tracer.install()`` replaces, in every ``oddlex`` module namespace, each
public module-level function, each public method of the module's classes and
every method of the algebra classes in ``oddlex.chains`` (the ``_compare`` /
``_mult`` / ``_neg`` recursion included) by a wrapper that records a span:
name, start, end and the span that caused it.  Nothing under ``src/`` is
edited; ``uninstall()`` restores the originals.

Every span is aggregated as it closes: calls, outermost inclusive time (a
recursive call inside a span of the same name adds nothing), and self time,
the duration minus the time covered by child spans.  The hottest functions
(see ``_hot``) open a span only when entered from another layer; inside their
own layer they are just counted, which keeps each layer's self time exact.
The first ``SPAN_CAP`` spans are also kept whole in memory and written out by
``write()`` when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
from pathlib import Path
from time import perf_counter

LAYERS = ("groups", "elements", "literals", "chains", "plp", "towers",
          "sampling", "logic", "verify", "serialize", "cli")

# The algebra classes whose private element operations are traced as well.
ALGEBRA_CLASSES = ("Algebra", "BaseAlgebra", "PlpAlgebra", "BoundedAlgebra")

# Spans kept whole for ``write()``; later spans are only aggregated.
SPAN_CAP = 100_000


def _targets():
    """(owner, attribute, span name) for every traced callable."""
    for layer in LAYERS:
        module = importlib.import_module(f"oddlex.{layer}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                    and not attr.startswith("_"):
                yield module, attr, f"{layer}.{attr}"
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                private_too = layer == "chains" and attr in ALGEBRA_CLASSES
                for name, member in vars(obj).items():
                    if not inspect.isfunction(member) or name.startswith("__"):
                        continue
                    if name.startswith("_") and not private_too:
                        continue
                    yield obj, name, f"{layer}.{attr}.{name}"


# Spans whose time is also kept per direct caller.
BY_CALLER = ("chains.Algebra.rank", "logic.unit_interval_render")


def _hot(name: str) -> bool:
    """Functions called millions of times: a call from a span of the same
    layer is only counted, and its time stays in that span.  Spans are
    recorded where a call crosses into another layer."""
    layer = name.split(".", 1)[0]
    return layer in ("groups", "elements", "chains") or name in (
        "sampling.sample_elem", "sampling.sample_group_elem")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, outer_s, self_s, depth]
        self.by_caller: dict[tuple, float] = {}  # (caller, name) -> s
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        # open spans: [child_s, id, name, layer]
        self._stack: list[list] = [[0.0, None, None, None]]
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, ids = self._stack, self.spans, self._ids
        by_caller = self.by_caller if name in BY_CALLER else None
        # The shared string from LAYERS, so that the fold test below can
        # compare layers by identity.
        layer = LAYERS[LAYERS.index(name.split(".", 1)[0])]
        fold = _hot(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if fold and parent[3] is layer:
                stat[0] += 1
                return fn(*args, **kwargs)
            frame = [0.0, next(ids), name, layer]
            stack.append(frame)
            stat[3] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dt = end - start
                parent[0] += dt
                stat[0] += 1
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += dt
                stat[2] += dt - frame[0]
                if by_caller is not None:
                    key = (parent[2], name)
                    by_caller[key] = by_caller.get(key, 0.0) + dt
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], name, start, end, parent[1]))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        wrappers = {}
        for owner, attr, name in list(_targets()):
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            wrappers[id(original)] = (original, wrapper)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        # Names imported into other modules, registries holding functions and
        # the package's re-exports point at the originals: retarget them too.
        import oddlex

        modules = {oddlex} | {importlib.import_module(f"oddlex.{l}") for l in LAYERS}
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._saved.append((value, key, item))
                            value[key] = hit[1]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregates ------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def outer_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0))[1] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def named(self, predicate) -> list[str]:
        return [n for n in self.stats if predicate(n)]

    def caller_s(self, name: str, caller_predicate) -> float:
        """Time in spans of ``name`` (one of BY_CALLER) whose direct caller matches."""
        return sum(s for (caller, n), s in self.by_caller.items()
                   if n == name and caller_predicate(caller))

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            total = sum(stat[0] for stat in self.stats.values())
            fh.write(json.dumps({"spans": total, "kept": len(self.spans)}) + "\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
