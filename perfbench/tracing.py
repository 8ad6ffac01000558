"""Spans and counts around the calls into each polyemit module.

Wrappers are installed on the attribute the caller looks up (for example
``polyemit.cli.enhancement_map`` for the CLI's call, ``TensorGrid.jet_at``
for the per-node call inside ``enhancement_map``) and call straight
through to the original, so every guard in the program still runs. A span
records its name, start, end, parent span and op id; spans stay in memory
until the run writes them out. Self time is a span's duration minus the
durations of its direct children (one thread, so children never overlap).

A target that no longer exists (a later refactor renamed or removed it) is
reported as absent: the metrics that need it are left out of the output
instead of reading zero.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (layer name, module, attribute path, kind). "span" times the call,
# "count" only counts it, "solver" times solve_ivp and every call of the
# right-hand side it is given.
TARGETS = (
    ("cli.main", "polyemit.cli", "main", "span"),
    ("grid.load_grid", "polyemit.cli", "load_grid", "span"),
    ("grid.validate_grid", "polyemit.cli", "validate_grid", "span"),
    ("grid.jet_at", "polyemit.grid", "TensorGrid.jet_at", "span"),
    ("rates.enhancement_map", "polyemit.cli", "enhancement_map", "span"),
    ("rates.emission_rate", "polyemit.rates", "emission_rate", "span"),
    ("rates.coupling_strength", "polyemit.cli", "coupling_strength", "span"),
    ("rates.collective_rate", "polyemit.cli", "collective_rate", "span"),
    ("emitter.bilinear_form", "polyemit.rates", "bilinear_form", "count"),
    ("emitter.moment_product_bundle", "polyemit.rates",
     "moment_product_bundle", "count"),
    ("emitter.contract", "polyemit.emitter", "CoefficientBundle.contract",
     "count"),
    ("jets.constructed", "polyemit.jets", "GreensJet.__post_init__", "count"),
    ("homogeneous.coincident_im_jet", "polyemit.cli", "coincident_im_jet",
     "span"),
    # the CLI's own jet at the mean frequency, and the one that
    # homogeneous_pair_model resolves when it builds its evaluator
    ("homogeneous.eval_jet", "polyemit.cli", "eval_homogeneous_jet", "span"),
    ("homogeneous.eval_jet", "polyemit.homogeneous", "eval_homogeneous_jet",
     "span"),
    ("quadrature.homogeneous_pair_model", "polyemit.cli",
     "homogeneous_pair_model", "span"),
    ("quadrature.imaginary_axis_form", "polyemit.rates",
     "imaginary_axis_form", "span"),
    ("quadrature.integrate_adaptive", "polyemit.quadrature",
     "integrate_adaptive", "count"),
    ("dynamics.evolve_ensemble", "polyemit.cli", "evolve_ensemble", "span"),
    ("dynamics.solve_ivp", "polyemit.dynamics", "solve_ivp", "solver"),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) of a dotted target."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans = []       # (id, name, start, end, parent id, op)
        self.counts = Counter()
        self.nevals = []      # QuadratureResult.neval per imaginary_axis_form
        self.op = None
        self._stack = []
        self._next = 0
        self._installed = []
        present = set()
        self._targets = []
        for name, module, path, kind in TARGETS:
            try:
                _resolve(module, path)
            except (ImportError, AttributeError):
                continue
            present.add(name)
            self._targets.append((name, module, path, kind))
        self.absent = sorted({t[0] for t in TARGETS} - present)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.op))
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _solver(self, name: str, fn):
        def solve(fun, *args, **kwargs):
            return fn(self._span("dynamics.rhs", fun), *args, **kwargs)
        return self._span(name, solve)

    def _record_neval(self, result) -> None:
        neval = getattr(result, "neval", None)
        if neval is not None:
            self.nevals.append(neval)

    def _wrap(self, name: str, kind: str, fn):
        if kind == "count":
            return self._count(name, fn)
        if kind == "solver":
            return self._solver(name, fn)
        if name == "quadrature.imaginary_axis_form":
            return self._span(name, fn, self._record_neval)
        return self._span(name, fn)

    # -- installation ------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Install every wrapper; calls until end_op belong to op."""
        self.op = op
        for name, module, path, kind in self._targets:
            owner, attr, original = _resolve(module, path)
            setattr(owner, attr, self._wrap(name, kind, original))
            self._installed.append((owner, attr, original))

    def end_op(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self.op = None

    def dump(self) -> dict:
        return {"span_fields": ["id", "name", "start_s", "end_s", "parent",
                                "op"],
                "spans": self.spans, "counts": dict(self.counts),
                "absent": self.absent}

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, ops: dict, slowdown: dict, setup: dict,
                      grid_bytes: int, rhs_flops: float) -> dict:
        """Per-layer metrics, as {name: {"value", "unit"}}, from the spans
        of the traced ops.

        ops maps op id -> label of every traced op, slowdown maps op id ->
        the machine slowdown its span durations are divided by (see
        calibration.py). Per-call values read 0 where the workload makes no
        such call; metrics of absent targets are left out.
        """
        n_ops = max(len(ops), 1)

        def span_s(t0, t1, op):
            return (t1 - t0) / slowdown.get(op, 1.0)

        child = defaultdict(float)
        for _, _, t0, t1, parent, op in self.spans:
            child[parent] += span_s(t0, t1, op)
        dur = defaultdict(list)
        own = defaultdict(list)
        for sid, name, t0, t1, _, op in self.spans:
            dur[name].append(span_s(t0, t1, op))
            own[name].append(span_s(t0, t1, op) - child[sid])

        def mean(values, scale=1.0):
            return scale * sum(values) / len(values) if values else 0.0

        def per_op(value):
            return value / n_ops

        def calls(name):
            return per_op(len(dur[name]))

        def spans_of(name, label):
            mine = {op for op, lab in ops.items() if lab == label}
            return mine, [span_s(t0, t1, op)
                          for _, span, t0, t1, _, op in self.spans
                          if span == name and op in mine]

        def evolve_s(label):
            return mean(spans_of("dynamics.evolve_ensemble", label)[1])

        def rhs_calls(label):
            mine, rhs = spans_of("dynamics.rhs", label)
            return len(rhs) / len(mine) if mine else 0.0

        def rhs_rate():
            rhs_s = sum(dur["dynamics.rhs"])
            return (rhs_flops * len(dur["dynamics.rhs"]) / rhs_s / 1e9
                    if rhs_s > 0 else 0.0)

        load = dur["grid.load_grid"]
        specs = [
            ("cli.self_s_per_op", "s", ("cli.main",),
             lambda: per_op(sum(own["cli.main"]))),
            ("grid.load_grid_s_per_call", "s", ("grid.load_grid",),
             lambda: mean(load)),
            ("grid.load_grid_mb_per_s", "MB/s", ("grid.load_grid",),
             lambda: grid_bytes / 1e6 / mean(load) if load else 0.0),
            ("grid.validate_grid_s_per_call", "s", ("grid.validate_grid",),
             lambda: mean(dur["grid.validate_grid"])),
            ("grid.jet_at_calls_per_op", "count", ("grid.jet_at",),
             lambda: calls("grid.jet_at")),
            ("grid.jet_at_us_per_call", "us", ("grid.jet_at",),
             lambda: mean(dur["grid.jet_at"], 1e6)),
            ("grid.save_grid_s", "s", (),
             lambda: setup.get("grid.save_grid_s", 0.0)),
            ("rates.enhancement_map_self_s_per_op", "s", ("rates.enhancement_map",),
             lambda: per_op(sum(own["rates.enhancement_map"]))),
            ("rates.emission_rate_us_per_call", "us", ("rates.emission_rate",),
             lambda: mean(dur["rates.emission_rate"], 1e6)),
            ("rates.coupling_strength_s_per_call", "s", ("rates.coupling_strength",),
             lambda: mean(dur["rates.coupling_strength"])),
            ("rates.collective_rate_calls_per_op", "count", ("rates.collective_rate",),
             lambda: calls("rates.collective_rate")),
            ("emitter.bilinear_form_calls_per_op", "count", ("emitter.bilinear_form",),
             lambda: per_op(self.counts["emitter.bilinear_form"])),
            ("emitter.moment_product_bundle_calls_per_op", "count",
             ("emitter.moment_product_bundle",),
             lambda: per_op(self.counts["emitter.moment_product_bundle"])),
            ("emitter.contract_calls_per_op", "count", ("emitter.contract",),
             lambda: per_op(self.counts["emitter.contract"])),
            ("jets.constructed_per_op", "count", ("jets.constructed",),
             lambda: per_op(self.counts["jets.constructed"])),
            ("homogeneous.eval_jet_calls_per_op", "count", ("homogeneous.eval_jet",),
             lambda: calls("homogeneous.eval_jet")),
            ("homogeneous.eval_jet_us_per_call", "us", ("homogeneous.eval_jet",),
             lambda: mean(dur["homogeneous.eval_jet"], 1e6)),
            ("quadrature.imaginary_axis_form_self_s_per_call", "s",
             ("quadrature.imaginary_axis_form",),
             lambda: mean(own["quadrature.imaginary_axis_form"])),
            ("quadrature.neval_per_call", "count", ("quadrature.imaginary_axis_form",),
             lambda: mean(self.nevals)),
            ("quadrature.integrate_adaptive_calls_per_op", "count",
             ("quadrature.integrate_adaptive",),
             lambda: per_op(self.counts["quadrature.integrate_adaptive"])),
            ("dynamics.rhs_us_per_call", "us", ("dynamics.solve_ivp",),
             lambda: mean(dur["dynamics.rhs"], 1e6)),
            ("dynamics.rhs_gflop_per_s_computed", "GFLOP/s", ("dynamics.solve_ivp",),
             rhs_rate),
            ("dynamics.solver_self_s_per_op", "s", ("dynamics.solve_ivp",),
             lambda: per_op(sum(own["dynamics.solve_ivp"]))),
            ("dynamics.post_s_per_op", "s",
             ("dynamics.evolve_ensemble", "dynamics.solve_ivp"),
             lambda: per_op(sum(dur["dynamics.evolve_ensemble"])
                            - sum(dur["dynamics.solve_ivp"]))),
            ("dynamics.build_ensemble_s", "s", (),
             lambda: setup.get("dynamics.build_ensemble_s", 0.0)),
        ]
        for label in ("n7-full", "n7-single"):
            key = label.replace("-", "_")
            specs += [
                (f"dynamics.evolve_s.{key}", "s", ("dynamics.evolve_ensemble",),
                 lambda lab=label: evolve_s(lab)),
                (f"dynamics.rhs_calls.{key}", "count", ("dynamics.solve_ivp",),
                 lambda lab=label: rhs_calls(lab)),
            ]
        absent = set(self.absent)
        return {key: {"value": fn(), "unit": unit}
                for key, unit, needs, fn in specs
                if not absent.intersection(needs)}
