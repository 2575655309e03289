"""In-memory spans around slicecat's public functions, from outside ``src/``.

``Tracer.install`` wraps every public function of the traced modules and
rebinds it under every name the library calls it through: a function that
``gadgets`` imported with ``from .homsearch import ...`` is replaced in
``gadgets`` too.  The constructors listed in ``CONSTRUCTORS`` are wrapped
through ``__init__`` so that ``isinstance`` keeps working.  ``uninstall``
restores every binding.

A span is one call, or one resumption of a generator: each ``next()`` into
``enumerate_homs`` is its own span, and the spans of one generator share a
call id.  Spans nest on a single stack, so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import itertools
import time
from pathlib import Path

MODULES = ("core", "homsearch", "arrow", "gadgets", "universality", "cli")


def _count_product_vertices(counts: dict, args: tuple) -> None:
    result = args[0]  # the ArrowResult that __init__ just filled in
    counts["arrow.product_vertices"] = (
        counts.get("arrow.product_vertices", 0) + result.product.vertex_count
    )


# (module, class, hook run after each successful __init__)
CONSTRUCTORS = (
    ("core", "Graph", None),
    ("core", "Morphism", None),
    ("core", "SliceObject", None),
    ("core", "SliceMorphism", None),
    ("arrow", "ArrowResult", _count_product_vertices),
)

# span fields
NAME, START, END, PARENT, CALL, YIELDED = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, call_id: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, call_id, 0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._enter(name, next(self._ids))
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, fn, name: str, after=None):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                call_id = next(self._ids)
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self._enter(name, call_id)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._exit(idx)
                        self.spans[idx][YIELDED] = 1
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name, next(self._ids))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(self.counts, args)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {short: importlib.import_module(f"slicecat.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for mod in [importlib.import_module("slicecat"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, attr, wrappers[obj])
        for short, cls_name, after in CONSTRUCTORS:
            cls = getattr(modules[short], cls_name)
            wrapped = self._wrap(cls.__init__, f"{short}.{cls_name}", after)
            self._rebind(cls, "__init__", wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines: name, start, end, parent, call, yielded."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tcall\tyielded\n")
            for s in self.spans:
                fh.write(f"{s[0]}\t{s[1]:.9f}\t{s[2]:.9f}\t{s[3]}\t{s[4]}\t{s[5]}\n")


class Summary:
    """Aggregates over a finished trace."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.child_time[s[PARENT]] += s[END] - s[START]
            self.by_name.setdefault(s[NAME], []).append(i)

    def _select(self, names) -> list[int]:
        names = (names,) if isinstance(names, str) else names
        return [i for name in names for i in self.by_name.get(name, ())]

    def calls(self, names) -> int:
        return len({self.spans[i][CALL] for i in self._select(names)})

    def yields(self, names, parent: str | None = None) -> int:
        """Solutions yielded by generator spans, optionally only to one caller."""
        return sum(
            self.spans[i][YIELDED]
            for i in self._select(names)
            if parent is None
            or (self.spans[i][PARENT] >= 0 and self.spans[self.spans[i][PARENT]][NAME] == parent)
        )

    def self_s(self, names) -> float:
        return sum(
            self.spans[i][END] - self.spans[i][START] - self.child_time[i]
            for i in self._select(names)
        )

    def busy_s(self, names) -> float:
        """Wall time inside any of ``names``, counting nested spans once."""
        names = {names} if isinstance(names, str) else set(names)
        inside = [False] * len(self.spans)  # some ancestor is one of names
        total = 0.0
        for i, s in enumerate(self.spans):
            p = s[PARENT]
            if p >= 0:
                inside[i] = inside[p] or self.spans[p][NAME] in names
            if s[NAME] in names and not inside[i]:
                total += s[END] - s[START]
        return total
