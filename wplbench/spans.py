"""Spans around the calls into each wpl layer, recorded from outside wpl.

`Tracer.install()` replaces each traced function by a wrapper at every
place it is looked up: the defining module, every wpl module that imported
it by name, and the class for methods.  `finite_kernel` imports `ln_gamma`
by name, for instance, so patching `specfun.ln_gamma` alone would miss its
calls.  A span records its name, start, end and parent; spans stay in
memory until `write()`.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import io
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from wpl import _hiprec, cli, specfun
from wpl import finite_kernel as fk
from wpl import freeprob as fp
from wpl import hard_edge as he
from wpl import sampler as sp
from wpl.errors import WplError

LAYERS = ("specfun", "freeprob", "finite_kernel", "hiprec", "hard_edge", "sampler", "cli")


def _points(args, kwargs, index: int = 0) -> int:
    return int(np.size(args[index]))


# (span name, owner, attribute, what one call adds to the span's count)
# The count is `calls` unless a workload-size measure is more telling.
TRACED = (
    ("specfun.ln_gamma", specfun, "ln_gamma", ("points", _points)),
    ("specfun.pfq", specfun, "pfq", None),
    ("specfun.meijer", specfun, "_meijer_eval", None),
    ("specfun.bessel_j", specfun, "bessel_j", None),
    ("freeprob.global_density", fp, "global_density", None),
    ("freeprob.solve_stieltjes", fp, "solve_stieltjes", None),
    ("finite_kernel.build", fk.BiorthSystem, "__init__", None),
    ("finite_kernel.q_matrix", fk.BiorthSystem, "q_matrix", ("points", lambda a, k: _points(a, k, 1))),
    ("finite_kernel.p_matrix", fk.BiorthSystem, "p_matrix", ("points", lambda a, k: _points(a, k, 1))),
    ("finite_kernel.kernel_n_contour", fk, "kernel_n_contour", None),
    ("finite_kernel.quadrature", fk, "_biorth_quadrature", None),
    ("hiprec.gram_matrix", _hiprec, "gram_matrix", None),
    ("hiprec.lngamma", _hiprec, "lngamma", ("points", _points)),
    ("hard_edge.k_hard", he, "k_hard", None),
    ("hard_edge.k_hard_cd", he, "k_hard_cd", None),
    ("sampler.spectrum", sp, "sample_product_spectrum", ("draws", lambda a, k: 1)),
    ("sampler.mc_charpoly", sp, "mc_charpoly", ("samples", lambda a, k: int(k.get("samples", a[2])))),
    ("cli.main", cli, "main", None),
)
# spans whose inclusive time is reported as `<name>.s`
INCLUSIVE = ("finite_kernel.build", "hiprec.gram_matrix")
WPL_MODULES = (specfun, fp, fk, _hiprec, he, sp, cli)


class _CountingWriter(io.TextIOBase):
    """Forwards writes and counts the bytes, for cli.main.bytes_out."""

    def __init__(self, target):
        self.target = target
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.target.write(text)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._seen_errors: set[tuple[str, int]] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        layer = name.split(".", 1)[0]
        unit, measure = counter if counter else ("calls", None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            writer = None
            try:
                if name == "cli.main":
                    writer = _CountingWriter(sys.stdout)
                    with redirect_stdout(writer):
                        return fn(*args, **kwargs)
                return fn(*args, **kwargs)
            except WplError as exc:
                if (layer, id(exc)) not in self._seen_errors:
                    self._seen_errors.add((layer, id(exc)))
                    self.errors[layer] += 1
                raise
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
                self.counts[f"{name}.{unit}"] += measure(args, kwargs) if measure else 1
                if writer is not None:
                    self.counts["cli.main.bytes_out"] += writer.bytes

        return wrapper

    def install(self) -> None:
        for name, owner, attr, counter in TRACED:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            owners = [owner] if isinstance(owner, type) else WPL_MODULES
            for mod in owners:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, val))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, val in reversed(self._patches):
            setattr(mod, key, val)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.errors.clear()
        self._seen_errors.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Total duration per span name (for functions that never nest)."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
