"""Outside-in span tracer for the qthermo layers.

The tracer replaces public functions of the library, from the outside,
with wrappers that record one span per call: name, start, end, parent
span and run id.  Calls are assumed to come from one thread, as they do with
``QTHERMO_THREADS`` unset.  Library modules import each other's functions by
name, so a function is replaced in every ``qthermo`` namespace that
holds it; ``GKLSGenerator`` methods are replaced on the class.  No
library file changes, and ``uninstall`` puts every original object back.

Spans are kept in memory; ``aggregate`` turns them into per-layer
counts and self times (a span's duration minus the part covered by its
direct children).
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (module, attribute path) of every traced function, in layer order.
TARGETS = (
    ("cli", "load_config"),
    ("cli", "run"),
    ("baths", "spectral_density"),
    ("operators", "dissipator_superop"),
    ("operators", "matexp"),
    ("operators", "eig_hermitian"),
    ("operators", "cp_check"),
    ("states", "gibbs_state"),
    ("states", "relative_entropy"),
    ("states", "von_neumann_entropy"),
    ("lindblad", "build_davies"),
    ("lindblad", "GKLSGenerator.dissipator"),
    ("lindblad", "GKLSGenerator.liouvillian"),
    ("lindblad", "stationary_state"),
    ("lindblad", "heat_currents"),
    ("lindblad", "entropy_production_rate"),
    ("lindblad", "trajectory"),
    ("lindblad", "davies_audit"),
    ("floquet", "floquet_decompose"),
    ("floquet", "harmonic_decompose"),
    ("floquet", "limit_cycle_laws"),
    ("machines", "tricycle_steady"),
    ("machines", "run_otto"),
    ("machines", "compose_cycle"),
    ("machines", "find_limit_cycle"),
    ("machines", "third_law_sweep"),
    ("machines", "optimize_power"),
)

# Extra per-span numbers, taken from the call's arguments and result.
_EXTRAS = {
    # computed, not measured: size of the d^2 x d^2 complex result
    "operators.dissipator_superop": ("bytes", lambda args, res: res.mat.nbytes),
    "lindblad.stationary_state": ("side", lambda args, res: args[0].dim ** 2),
    "machines.find_limit_cycle": ("iterations", lambda args, res: len(res[1])),
}

# A call of one of these is a cache miss when it built a dissipator.
_MISS_PARENTS = ("lindblad.GKLSGenerator.dissipator", "lindblad.GKLSGenerator.liouvillian")
_MISS_CHILD = "operators.dissipator_superop"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run_id: int
    error: bool = False
    extra: int = 0


@dataclass
class Tracer:
    run_id: int = 0
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn):
        """A wrapper of fn that records one span per call."""
        spans, stack = self.spans, self._stack
        extra = _EXTRAS.get(name, (None, None))[1]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.run_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if extra is not None:
                span.extra = extra(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target in every loaded namespace of qthermo."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if m is not None and (k == "qthermo" or k.startswith("qthermo."))]
        for module_name, path in TARGETS:
            module = sys.modules[f"qthermo.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def aggregate(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers: <name>.calls, .self_s and .errors for every
    name seen, plus .misses, .bytes, .side and .iterations where they
    apply."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    missed: set[int] = set()
    for s in spans:
        p = s.parent if s.name == _MISS_CHILD else -1
        while p >= 0:
            if spans[p].name in _MISS_PARENTS:
                missed.add(p)
            p = spans[p].parent
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        out[f"{s.name}.self_s"] = (out.get(f"{s.name}.self_s", 0.0)
                                   + (s.end - s.start) - child_time[i])
        out[f"{s.name}.errors"] = out.get(f"{s.name}.errors", 0) + int(s.error)
        if s.name in _MISS_PARENTS:
            out[f"{s.name}.misses"] = out.get(f"{s.name}.misses", 0) + int(i in missed)
        if s.name in _EXTRAS:
            key = f"{s.name}.{_EXTRAS[s.name][0]}"
            if _EXTRAS[s.name][0] == "side":
                out[key] = max(out.get(key, 0), s.extra)
            else:
                out[key] = out.get(key, 0) + s.extra
    return out
