"""Outside tracer: spans around the public functions of ``polytoric``.

The package is never edited.  ``Tracer.install`` replaces every public
function of the six modules at every name it is bound to (the modules use
``from ... import``, so one function has several bindings, for example
``polytoric.toric.buchberger`` and ``polytoric.verify.buchberger``) with
one wrapper that records a span.  ``Tracer.restore`` puts every original
back.

A span is ``[name, start, end, parent, op, info, probe_s]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``op`` the operation id
the benchmark set (None during set-up), ``info`` what a probe read from
the call's arguments and result, and ``probe_s`` the time that probe took.
Probes run after the span is closed and their time is left out of the
parent's self time.
"""

from __future__ import annotations

import inspect
import sys
import time

MODULES = ("cli", "grid", "labelling", "toric", "binom", "verify")

# Leaf constructors called per variable or per point: a wrapper would cost
# more than their bodies and would swamp the spans around real work.
UNTRACED = {
    "binom.vertex_var", "binom.r_var", "binom.s_var", "binom.t_var",
    "grid.point_key",
}

NAME, START, END, PARENT, OP, INFO, PROBE = range(7)


def _binding_modules():
    return [m for n, m in sys.modules.items()
            if n == "polytoric" or n.startswith("polytoric.")]


def _frozen(gens) -> frozenset:
    return frozenset(frozenset((g.plus, g.minus)) for g in gens)


def _probe_buchberger(args, kwargs, result):
    gens = args[0] if args else kwargs["gens"]
    return {"gens_in": len(gens), "basis_out": len(result.elements), "in_set": _frozen(gens)}


def _probe_saturate(args, kwargs, result):
    return {"out_set": _frozen(result)}


def _probe_reduce(zero):
    def probe(args, kwargs, result):
        nf = result[0] if isinstance(result, tuple) else result  # (nf, cert) when tracked
        return {"zero": nf is zero}
    return probe


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, probe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[INFO] = probe(args, kwargs, result)
                span[PROBE] = clock() - span[END]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        binom = sys.modules["polytoric.binom"]
        probes = {
            "binom.buchberger": _probe_buchberger,
            "binom.reduce": _probe_reduce(binom.ZERO),
            "toric.saturate_generators": _probe_saturate,
        }
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"polytoric.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[obj] = self._wrap(name, obj, probes.get(name))
        for mod in _binding_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children (and the
    probes run for them) cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START] + s[PROBE]
    return own


_MS_SPANS = (
    "toric.toric_generators", "toric.lattice_kernel",
    "verify.check_theorem", "verify.quadratic_scan",
    "verify.kernel_binomials_up_to_degree",
    "grid.build_rect_diff", "grid.enumerate_inner_minors", "grid.inner_intervals",
    "grid.is_inner_interval", "grid.inner_minor",
    "labelling.build_label_map", "cli.main",
)
STAGE_KEYS = ("build_ms", "inner_minors_ms", "quadratic_scan_ms",
              "toric_generators_ms", "groebner_inner_minors_ms", "compare_ms")


def layer_metrics(spans, passes: int, stages: dict) -> dict:
    """Per-layer figures for one traced set-up plus one pass: spans of
    operations count 1/passes each, set-up spans count once; maxima are
    taken over all spans.  ``stages`` maps an operation id to the
    ``timings`` of the report that operation returned."""
    own = self_times(spans)
    weight = [1.0 if s[OP] is None else 1.0 / passes for s in spans]
    by_name: dict[str, list[int]] = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(k)

    def dur(k):
        return spans[k][END] - spans[k][START]

    def total_ms(name):
        return 1000.0 * sum(weight[k] * dur(k) for k in by_name.get(name, ()))

    out = {f"{name}.ms": total_ms(name) for name in _MS_SPANS}
    out["toric.saturate_generators.self_ms"] = 1000.0 * sum(
        weight[k] * own[k] for k in by_name.get("toric.saturate_generators", ()))

    steps = changed = 0.0
    step_max = 0.0
    for k in by_name.get("toric.saturate_generators", ()):
        children = [c for c in by_name.get("binom.buchberger", ()) if spans[c][PARENT] == k]
        sets = [spans[c][INFO]["in_set"] for c in children] + [spans[k][INFO]["out_set"]]
        steps += weight[k] * len(children)
        changed += weight[k] * sum(a != b for a, b in zip(sets, sets[1:]))
        step_max = max([step_max] + [dur(c) for c in children])
    out["toric.saturation_steps"] = steps
    out["toric.saturation_steps_changed"] = changed
    out["toric.saturation_step_max_ms"] = 1000.0 * step_max

    bb = by_name.get("binom.buchberger", ())
    out["binom.buchberger.calls"] = sum(weight[k] for k in bb)
    out["binom.buchberger.ms"] = total_ms("binom.buchberger")
    out["binom.buchberger.max_ms"] = 1000.0 * max((dur(k) for k in bb), default=0.0)
    out["binom.buchberger.gens_in"] = sum(weight[k] * spans[k][INFO]["gens_in"] for k in bb)
    out["binom.buchberger.basis_out_max"] = max(
        (spans[k][INFO]["basis_out"] for k in bb), default=0)

    rd = by_name.get("binom.reduce", ())
    calls = sum(weight[k] for k in rd)
    out["binom.reduce.calls"] = calls
    out["binom.reduce.ms"] = total_ms("binom.reduce")
    out["binom.reduce.zero_ratio"] = (
        sum(weight[k] for k in rd if spans[k][INFO]["zero"]) / calls if calls else 0.0)

    op_weight = 1.0 / passes
    for key in STAGE_KEYS:
        out[f"verify.stage.{key}"] = op_weight * sum(t.get(key, 0.0) for t in stages.values())

    for layer in MODULES:
        out[f"layer.{layer}.self_ms"] = 1000.0 * sum(
            weight[k] * own[k] for k, s in enumerate(spans)
            if s[NAME].startswith(layer + "."))
    out["trace.spans"] = sum(weight)
    out["trace.toric_gap_ms"] = op_weight * sum(toric_gaps(spans, stages).values())
    return out


def toric_gaps(spans, stages: dict) -> dict:
    """For each operation with a report: the outside ``toric_generators``
    span minus the report's own ``toric_generators_ms``, in ms."""
    gaps = {op: -t["toric_generators_ms"] for op, t in stages.items()}
    for s in spans:
        if s[NAME] == "toric.toric_generators" and s[OP] in gaps:
            gaps[s[OP]] += 1000.0 * (s[END] - s[START])
    return gaps
