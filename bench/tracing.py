"""Span tracing of dpskit from outside the program, and the per-layer metrics.

The layers are dpskit's modules.  ``Tracer.install`` replaces, for the life
of a traced pass, every function one dpskit module imported from another
(``from .solver import solve`` binds ``dpskit.extensions.solve``, so the name
is patched there, where it is used) plus the module-level names that carry a
per-layer metric.  Each call then records a span (id, parent, query, layer,
name, start, end) in memory.  ``Tracer.remove`` restores the originals, so the
untraced passes run the program exactly as shipped.

Sizes come from the objects crossing the boundary: m (equality rows) and the
real block sides from the ``SdpProblem`` that ``_compile`` returns and
``solve`` receives, iterations and status from the ``SdpSolution``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

LAYERS = (
    "cli", "applications", "certify", "extensions",
    "bounds", "symmetric", "solver", "operators",
)

# Module-level names patched in their own module: calls through them are
# intra-module, but they carry a named per-layer metric.  ``dpskit.certify``
# is also the function the package re-exports, so modules are always taken
# from ``sys.modules``.
OWN_MODULE_NAMES = {
    "cli": ("main",),
    "bounds": ("g_N", "required_N"),
    "extensions": ("_compile", "verify_witness"),
    "certify": ("rank_min_heuristic", "rank_loop_check"),
}


@dataclass
class Span:
    id: int
    parent: int | None
    query: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SolveRecord:
    m: int
    sides: tuple[int, ...]
    iterations: int
    status: str
    span: int


@dataclass
class Tracer:
    """Spans and counts of one traced pass; install, run the pass, remove."""

    spans: list = field(default_factory=list)
    solves: list = field(default_factory=list)
    compiles: list = field(default_factory=list)  # (query, m, sides)
    events: Counter = field(default_factory=Counter)
    query: int | None = None
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap the boundary functions of every loaded dpskit module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"dpskit.{name}"] for name in LAYERS}
        for user, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                package, _, owner = value.__module__.rpartition(".")
                if package == "dpskit" and owner in modules and owner != user:
                    self._patch(module, attr, owner, value)
        for layer, names in OWN_MODULE_NAMES.items():
            for attr in names:
                self._patch(modules[layer], attr, layer, getattr(modules[layer], attr))
        # cli reaches applications through the module (``apps.fidelity_bounds``)
        apps = modules["applications"]
        for attr in apps.__all__:
            value = getattr(apps, attr)
            if inspect.isfunction(value):
                self._patch(apps, attr, "applications", value)

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module, attr, layer, fn):
        hook = _HOOKS.get((fn.__module__, fn.__name__))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                        tracer.query, layer, fn.__name__, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if hook is not None:
                    hook(tracer, span, args, result, exc)

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)


# -- hooks: read sizes and outcomes off the objects crossing a boundary ------


def _on_solve(tracer, span, args, result, exc):
    problem = args[0]
    if exc is not None:
        if type(exc).__name__ == "SolverBreakdown":
            tracer.events["solver.breakdowns"] += 1
        return
    tracer.solves.append(SolveRecord(
        len(problem.constraints), tuple(problem.block_sizes),
        result.iterations, result.status, span.id,
    ))


def _on_compile(tracer, span, args, result, exc):
    if exc is None:
        problem = result[0]
        tracer.compiles.append((span.query, len(problem.constraints),
                                tuple(problem.block_sizes)))


def _on_membership(tracer, span, args, result, exc):
    if exc is None and result.verdict == "undecided":
        tracer.events["extensions.undecided"] += 1


def _on_certify(tracer, span, args, result, exc):
    tracer.events["certify.verdicts"] += 1
    if exc is None and result.verdict in ("entangled", "separable"):
        tracer.events["certify.decided"] += 1


_HOOKS = {
    ("dpskit.solver", "solve"): _on_solve,
    ("dpskit.extensions", "_compile"): _on_compile,
    ("dpskit.extensions", "check_membership"): _on_membership,
    ("dpskit.certify", "certify"): _on_certify,
}


# -- arithmetic --------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span duration minus the durations of its direct children.

    Spans come from one thread, so a span's children never overlap and
    their summed durations are the part of its interval they cover.
    """
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def schur_gflop(m: int, sides, iterations: int) -> float:
    """Computed flops of HKM Schur formation and its Cholesky, per solve."""
    per_iter = sum(4 * m * n**3 + 2 * m * m * n * n for n in sides) + m**3 / 3
    return iterations * per_iter / 1e9


def stack_mib(m: int, sides) -> float:
    """Computed size of the dense float64 constraint stacks, m * sum n_b^2."""
    return 8 * m * sum(n * n for n in sides) / 2**20


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything but the overhead)."""
    spans = tracer.spans
    selfs = self_times(spans)
    layer_self = defaultdict(float)
    inclusive = defaultdict(float)
    calls = Counter()
    for s in spans:
        layer_self[s.layer] += selfs[s.id]
        inclusive[s.layer, s.name] += s.duration
        calls[s.layer, s.name] += 1

    by_id = {s.id: s for s in spans}

    def under_certify(span_id):
        while span_id is not None:
            s = by_id[span_id]
            if s.layer == "certify" and s.name == "certify":
                return True
            span_id = s.parent
        return False

    solves = tracer.solves
    iterations = sum(r.iterations for r in solves)
    solve_time = inclusive["solver", "solve"]
    verdicts = tracer.events["certify.verdicts"]
    certify_solves = sum(1 for r in solves if under_certify(r.span))
    ms = [m for _, m, _ in tracer.compiles]
    return {
        "solver.self_s": layer_self["solver"],
        "solver.s_per_iter": solve_time / iterations if iterations else 0.0,
        "solver.calls": calls["solver", "solve"],
        "solver.iterations": iterations,
        "solver.schur_gflop": sum(schur_gflop(r.m, r.sides, r.iterations) for r in solves),
        "solver.stack_mb": max((stack_mib(r.m, r.sides) for r in solves), default=0.0),
        "solver.max_iter": sum(1 for r in solves if r.status == "max_iter"),
        "solver.breakdowns": tracer.events["solver.breakdowns"],
        "extensions.m_max": max(ms, default=0),
        "extensions.m_sum": sum(ms),
        "extensions.block_side_max": max(
            (n for _, _, sides in tracer.compiles for n in sides), default=0),
        "extensions.self_s": layer_self["extensions"],
        "extensions.verify_witness_s": inclusive["extensions", "verify_witness"],
        "extensions.undecided": tracer.events["extensions.undecided"],
        "certify.self_s": layer_self["certify"],
        "certify.rank_min_heuristic_s": inclusive["certify", "rank_min_heuristic"],
        "certify.rank_loop_check_s": inclusive["certify", "rank_loop_check"],
        "certify.solves_per_verdict": certify_solves / verdicts if verdicts else 0.0,
        "certify.decided_frac": tracer.events["certify.decided"] / verdicts if verdicts else 0.0,
        "symmetric.build_basis_s": inclusive["symmetric", "build_basis"],
        "symmetric.build_basis.calls": calls["symmetric", "build_basis"],
        "bounds.self_s": layer_self["bounds"],
        "bounds.g_N.calls": calls["bounds", "g_N"],
        "bounds.required_N.calls": calls["bounds", "required_N"],
        "applications.self_s": layer_self["applications"],
        "operators.self_s": layer_self["operators"],
        "cli.self_s": layer_self["cli"],
    }


def query_sizes(tracer: Tracer) -> dict[int, int]:
    """Largest compiled m per query, the figure ROADMAP's size table quotes."""
    out = {}
    for query, m, _ in tracer.compiles:
        out[query] = max(out.get(query, 0), m)
    return out
