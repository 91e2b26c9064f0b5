"""Runtime tracer for the traced benchmark run.

The tracer wraps, from outside the package, the public functions of each
twistgab layer and the methods of ``FieldTower``.  Nothing under ``src/``
knows about it.  Every module's own binding of a wrapped function is patched
(``covering.matrix_is_mrd`` and ``mrdcheck.generator_matrix`` are imported by
name, and ``cli._COMMANDS`` holds the command functions), so a call is seen
from whichever module makes it.

Two kinds of wrapper:

* a span records (id, parent id, job, name, start, end).  The stack of open
  spans is thread-local; a span opened on a ``--workers`` pool thread with an
  empty stack takes the runner thread's innermost open span as its parent.
  Spans are kept in memory and written out at the end.  A span's self time is
  its duration minus the part of it that its child spans cover.
* a counter, for FieldTower methods that act on one or two elements (scalar
  add/sub/neg/mul/inv/div, fq_rank, frobenius, ...).  A span would cost more
  than such a call, so these are counted only; their time lands in the
  caller's self time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("fieldtower", "linpoly", "moore", "gcoeff", "codes", "mrdcheck", "covering", "cli")
SCALAR_OPS = ("add", "sub", "neg", "mul", "inv", "div")
VECTOR_OPS = ("add_many", "mul_many", "frob_many", "norm_many")
# FieldTower methods that are counted rather than spanned: each acts on one or
# two elements or one short vector and is called once per element, codeword or
# ambient vector.
COUNTED = SCALAR_OPS + (
    "fq_rank", "fq_echelon", "pow_", "frobenius", "norm", "inv_euclid", "lift_fq",
    "q_add", "q_sub", "q_neg", "q_mul", "q_inv", "coords", "from_coords",
    "coord_residues", "subfield_membership", "element_to_json", "element_from_json",
    "random_element", "random_nonzero", "elements", "nonzero_elements",
)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Spans and counters around the layers of one imported twistgab package."""

    def __init__(self, package):
        self.package = package
        self.job: str | None = None  # set by the runner before each job
        self.spans: list[tuple[int, int, str | None, str, float, float]] = []
        self.errors: list[BaseException] = []  # distinct exceptions out of fieldtower
        self._ids = itertools.count(1)
        self._counts: dict[str, itertools.count] = {}
        self._amounts: dict[str, list[int]] = defaultdict(list)  # summed at the end
        self._local = threading.local()
        self._runner_stack: list[int] = []
        self._undo: list = []

    # -- wrappers -------------------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _tick(self, name: str):
        # next() on an itertools.count is one atomic step under the GIL, so pool
        # threads lose no counts; count() reads the value back from its repr
        return self._counts.setdefault(name, itertools.count()).__next__

    def _error(self, exc: BaseException) -> None:
        if not any(e is exc for e in self.errors):
            self.errors.append(exc)

    def _span(self, name: str, fn, amount=None):
        """Wrap `fn` in a span; `amount(args, kwargs, result)` adds to a work count."""
        spans, ids, stack_of, runner_stack = self.spans, self._ids, self._stack, self._runner_stack
        on_error = self._error if name.startswith("fieldtower.") else None
        amounts = self._amounts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (runner_stack[-1] if runner_stack else 0)
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, self.job, name, start, end))
            if amount is not None:
                amounts.append(amount(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, name: str, fn):
        tick, on_error = self._tick(name), self._error

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                on_error(exc)
                raise

        return wrapper

    def _subspace_walk(self, fn, gaussian_binomial):
        """Count the subspace representatives a caller actually visits."""
        visit, expected = self._tick("mrdcheck.subspaces"), self._amounts["mrdcheck.subspaces_expected"]

        @functools.wraps(fn)
        def wrapper(n, k, q, budget=None):
            expected.append(gaussian_binomial(n, k, q))
            for V in fn(n, k, q, budget):
                visit()
                yield V

        return wrapper

    # -- install / uninstall ----------------------------------------------------------

    def install(self) -> None:
        pkg = self.package.__name__
        self._runner_stack = self._stack()
        mods = {layer: sys.modules[f"{pkg}.{layer}"] for layer in LAYERS}
        bindings = [m for name, m in sys.modules.items() if name == pkg or name.startswith(pkg + ".")]
        # originals, taken before the loop below wraps them
        classes = mods["codes"].projective_class_count
        walk, gaussian = mods["mrdcheck"].enumerate_subspaces, mods["mrdcheck"].gaussian_binomial
        amounts = {
            # message classes enumerated for the code and for its dual
            "codes.min_rank_distance": lambda a, kw, r: classes(a[0].tower.order, a[0].k)
            + classes(a[0].tower.order, a[0].n - a[0].k),
            "codes.min_hamming_distance": lambda a, kw, r: classes(a[0].tower.order, a[0].k),
            # ambient vectors scanned (none when only theorem bounds were given)
            "covering.covering_radius_exhaustive": lambda a, kw, r: 0
            if r.rho is None else a[0].tower.order ** a[0].n,
        }
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if obj is walk:
                    wrapped = self._subspace_walk(obj, gaussian)
                else:
                    wrapped = self._span(name, obj, amounts.get(name))
                self._rebind(bindings, obj, wrapped)
        tower_cls = mods["fieldtower"].FieldTower
        for attr, obj in list(vars(tower_cls).items()):
            if not callable(obj) or (attr.startswith("_") and attr != "__init__"):
                continue
            name = f"fieldtower.{attr}"
            wrapped = self._counter(name, obj) if attr in COUNTED else self._span(name, obj)
            setattr(tower_cls, attr, wrapped)
            self._undo.append((setattr, tower_cls, attr, obj))

    def _rebind(self, modules, original, wrapped) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((setattr, mod, attr, original))
                elif isinstance(value, dict):
                    for key, v in value.items():
                        if v is original:
                            value[key] = wrapped
                            self._undo.append((dict.__setitem__, value, key, original))

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, attr, original = self._undo.pop()
            restore(owner, attr, original)

    # -- results ------------------------------------------------------------------------

    def count(self, name: str) -> int:
        c = self._counts.get(name)
        return 0 if c is None else int(repr(c)[6:-1])

    def amount(self, name: str) -> int:
        return sum(self._amounts.get(name, ()))

    def per_span(self) -> dict[int, tuple[str, str | None, float, float]]:
        """Span id -> (name, job, duration, self time)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            children[parent].append((start, end))
        return {
            sid: (name, job, end - start, end - start - _covered(children.get(sid, []), start, end))
            for sid, _, job, name, start, end in self.spans
        }

    def functions(self) -> dict[str, dict]:
        """Per wrapped function: calls, inclusive seconds, self seconds."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for name, _, dur, self_s in self.per_span().values():
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += dur
            row["self_s"] += self_s
        for name in self._counts:
            out[name]["calls"] += self.count(name)
        return dict(out)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics: name -> (value, unit)."""
        fns = self.functions()
        spans = self.per_span()
        parent_of = {sid: parent for sid, parent, *_ in self.spans}

        def calls(name):
            return fns.get(name, {}).get("calls", 0)

        def incl(*names):
            return sum(fns.get(n, {}).get("incl_s", 0.0) for n in names)

        def self_s(layer):
            return sum((s for name, _, _, s in spans.values() if name.startswith(layer + ".")), 0.0)

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        # time inside mrdcheck, children included, counted once per outermost mrdcheck span
        mrd_s = sum(
            dur for sid, (name, _, dur, _) in spans.items()
            if name.startswith("mrdcheck.")
            and not spans.get(parent_of[sid], ("",))[0].startswith("mrdcheck.")
        )
        classes = self.amount("codes.min_rank_distance") + self.amount("codes.min_hamming_distance")
        visited = self.count("mrdcheck.subspaces")
        expected = self.amount("mrdcheck.subspaces_expected")
        ambient = self.amount("covering.covering_radius_exhaustive")
        scan_s = incl("covering.covering_radius_exhaustive")
        enum_s = incl("codes.min_rank_distance", "codes.min_hamming_distance")
        vector = [f"fieldtower.{op}" for op in VECTOR_OPS]
        return {
            "fieldtower.build.calls": (calls("fieldtower.__init__"), "count"),
            "fieldtower.build_s": (incl("fieldtower.__init__"), "s"),
            "fieldtower.scalar_ops": (sum(self.count(f"fieldtower.{op}") for op in SCALAR_OPS), "count"),
            "fieldtower.fq_rank.calls": (self.count("fieldtower.fq_rank"), "count"),
            "fieldtower.vector_ops": (sum(calls(n) for n in vector), "count"),
            "fieldtower.vector_s": (incl(*vector), "s"),
            "fieldtower.errors": (len(self.errors), "count"),
            "fieldtower.self_s": (self_s("fieldtower"), "s"),
            "linpoly.annihilator.calls": (calls("linpoly.annihilator"), "count"),
            "linpoly.self_s": (self_s("linpoly"), "s"),
            "gcoeff.g_coefficient.calls": (calls("gcoeff.g_coefficient"), "count"),
            "gcoeff.self_s": (self_s("gcoeff"), "s"),
            "moore.det.calls": (calls("moore.det_fqm"), "count"),
            "moore.rank.calls": (calls("moore.rank_fqm"), "count"),
            "moore.nullspace.calls": (calls("moore.nullspace_fqm"), "count"),
            "moore.self_s": (self_s("moore"), "s"),
            "codes.message_classes": (classes, "count"),
            "codes.self_s": (self_s("codes"), "s"),
            "codes.classes_per_s": (rate(classes, enum_s), "1/s"),
            "mrdcheck.subspaces": (visited, "count"),
            "mrdcheck.subspace_visit_ratio": (visited / expected if expected else 0.0, "ratio"),
            "mrdcheck.self_s": (self_s("mrdcheck"), "s"),
            "mrdcheck.subspaces_per_s": (rate(visited, mrd_s), "1/s"),
            "covering.ambient_vectors": (ambient, "count"),
            "covering.scan_s": (scan_s, "s"),
            "covering.vectors_per_s": (rate(ambient, scan_s), "1/s"),
            "covering.distance.calls": (calls("covering.distance_to_code"), "count"),
            "covering.distance_s": (incl("covering.distance_to_code"), "s"),
            "covering.extension.calls": (calls("covering.deep_hole_via_extension"), "count"),
            "covering.self_s": (self_s("covering"), "s"),
            "cli.jobs": (calls("cli.main"), "count"),
            "cli.self_s": (self_s("cli"), "s"),
            "trace.spans": (len(self.spans), "count"),
        }
