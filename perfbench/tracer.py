"""Outside-in layer tracer for the benchmark's traced run.

The tracer wraps the public entry points of each tauforge layer.  Modules
bind names directly (`tau` does `from tauforge.schur import schur_jt`), so
every `tauforge.*` binding of a wrapped function is patched, as are the
class attributes of wrapped methods (`Poly.__rmul__` is `Poly.__mul__`).
`uninstall` puts every original back.

Per-element accessors (`VariableTable.weight_of`, `Partition.part`,
`Poly.is_zero`, ...) stay unwrapped: they run millions of times and a span
around each would measure the tracer, not the layer.

Each span records its name, start, end, parent span and job id; spans stay
in memory and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.  A layer's total time counts
only spans with no enclosing span of the same layer, so recursion is not
counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# Layer -> (module-level functions, {class: methods}).  The layer name is the
# module name; the order is bottom-up.
PLAN: dict[str, tuple[tuple[str, ...], dict[str, tuple[str, ...]]]] = {
    "partitions": (("enumerate_partitions", "maya_canonicalize"), {}),
    "polyring": (
        ("poly_matrix_det", "fraction_matrix_det", "fraction_matrix_inverse", "hirota_bilinear"),
        {
            "Poly": (
                "__add__", "__sub__", "__mul__", "__pow__", "derivative", "substitute",
                "series_exp", "series_log1p", "series_inverse", "truncate",
            ),
            "TimeFamily": ("h", "xi_value", "shift_by", "apply_diff"),
        },
    ),
    "schur": (("schur_jt", "skew_schur", "schur_dual_jt", "schur_giambelli"), {}),
    "fock": (
        (
            "apply_mode", "apply_letter", "apply_word", "inner", "project", "outer_project",
            "apply_charge", "apply_current", "apply_current_combination",
            "apply_current_exp", "apply_current_exp_direct", "skew_schur_signed",
            "apply_diagonal_multipliers", "apply_diagonal_exp",
        ),
        {"FockVector": ("__add__", "scale")},
    ),
    "grouplike": (("apply_element", "bbc_check", "verify_charge"), {}),
    "wick": (("correlator_exact", "correlator_window", "kernel_vev_between", "dress_word"), {}),
    "tau": (("expand_mkp", "expand_mkp_direct", "pluecker_coefficient"), {}),
    "hirota": (("kp_residue_check", "kp_equation_check", "mkp_equation_check"), {}),
    "models": (
        (
            "unitary_model_tau", "diagonal_model_tau_closed", "hermitian_moment_tau",
            "soliton_tau",
        ),
        {},
    ),
    "cli": (("main", "element_from_json"), {}),
}
LAYERS = tuple(PLAN)

COUNTERS = (
    "polyring.mul.calls",
    "polyring.mul.candidates",
    "polyring.mul.kept",
    "polyring.det.calls",
    "schur.lookups",
    "schur.repeats",
    "fock.states_in",
    "fock.states_out",
    "tau.coefficients",
    "tau.nonzero",
)
# the rest enter only through the ratios below
REPORTED_COUNTERS = COUNTERS[:4] + ("fock.states_in", "fock.states_out", "tau.coefficients")


def _tauforge_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("tauforge.")]


class Tracer:
    def __init__(self):
        self.job = -1
        self.enabled = True
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.raised: list[int] = []
        self.job_counts: dict[int, dict[str, int]] = {}
        self.counts = self._new_counts()
        self._schur_seen: set = set()
        self._stack: list[int] = []
        # span columns, indexed by span id (ids are given at span entry, so
        # a parent's id is below its children's)
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_job = array("i")
        self._patched: list[tuple[object, str, object]] = []

    @staticmethod
    def _new_counts() -> dict[str, int]:
        return dict.fromkeys(COUNTERS, 0)

    def start_job(self, job_id: int):
        """Attribute the following spans and counts to one job."""
        self.job = job_id
        self.counts = self.job_counts.setdefault(job_id, self._new_counts())

    def end_job(self):
        self.job = -1
        self.counts = self._new_counts()

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every planned entry point in every tauforge module that binds
        it.  Every submodule is imported first, so no module can later bind
        a wrapper by importing it from a patched module."""
        for layer in LAYERS:
            importlib.import_module(f"tauforge.{layer}")
        modules = _tauforge_modules()
        for layer_id, layer in enumerate(LAYERS):
            home = sys.modules[f"tauforge.{layer}"]
            functions, classes = PLAN[layer]
            for name in functions:
                original = getattr(home, name)
                if original.__module__ != home.__name__:
                    raise ValueError(f"{layer}.{name} is defined in {original.__module__}")
                wrapper = self._wrap(layer_id, f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
            for cls_name, methods in classes.items():
                cls = getattr(home, cls_name)
                for name in methods:
                    original = cls.__dict__[name]
                    wrapper = self._wrap(layer_id, f"{layer}.{cls_name}.{name}", original)
                    for attr, value in list(vars(cls).items()):
                        if value is original:
                            self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run untraced inside the block (used for output checks)."""
        before, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = before

    # -- spans ------------------------------------------------------------

    def _wrap(self, layer_id: int, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        self.name_layer.append(layer_id)
        self.raised.append(0)
        count = self._counter(span_name)
        tracer, stack, raised = self, self._stack, self.raised
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_job = self.span_parent, self.span_job
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_job.append(tracer.job)
            s_end.append(0)
            stack.append(idx)
            s_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                s_end[idx] = clock()
                stack.pop()
                raised[nid] += 1
                raise
            s_end[idx] = clock()
            stack.pop()
            if count is not None:
                count(args, out)
            return out

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _counter(self, span_name: str):
        """Work counters, taken at the same boundaries as the spans."""
        tracer = self
        if span_name == "polyring.Poly.__mul__":
            from tauforge.polyring import Poly

            def count(args, out):
                a, b = args
                if isinstance(b, Poly):
                    tracer.counts["polyring.mul.calls"] += 1
                    tracer.counts["polyring.mul.candidates"] += len(a.terms) * len(b.terms)
                    tracer.counts["polyring.mul.kept"] += pairs_within_cutoffs(a, b)

            return count
        if span_name == "polyring.poly_matrix_det":

            def count(args, out):
                tracer.counts["polyring.det.calls"] += 1

            return count
        if span_name in ("schur.schur_jt", "schur.skew_schur"):
            seen = self._schur_seen

            def count(args, out):
                family, *shapes = args
                key = (
                    span_name,
                    family.table,
                    tuple(family.names),
                    tuple(sorted(family.cutoffs.items())),
                    *shapes,
                )
                tracer.counts["schur.lookups"] += 1
                if key in seen:
                    tracer.counts["schur.repeats"] += 1
                else:
                    seen.add(key)

            return count
        if span_name.startswith("fock.") and span_name != "fock.skew_schur_signed":
            from tauforge.fock import FockVector

            def count(args, out):
                tracer.counts["fock.states_in"] += sum(
                    len(a.states) for a in args if isinstance(a, FockVector)
                )
                if isinstance(out, FockVector):
                    tracer.counts["fock.states_out"] += len(out.states)

            return count
        if span_name == "tau.pluecker_coefficient":

            def count(args, out):
                tracer.counts["tau.coefficients"] += 1
                zero = out.is_zero if hasattr(out, "terms") else out == 0
                tracer.counts["tau.nonzero"] += not zero

            return count
        return None

    # -- results ----------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls, self_s, total_s and raised per layer, from the spans."""
        n = len(self.span_name)
        layer_of = [self.name_layer[i] for i in self.span_name]
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        above = [0] * n  # bitmask of the layers of a span's ancestors
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
                above[i] = above[p] | (1 << layer_of[p])
        table = {
            layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "raised": 0}
            for layer in LAYERS
        }
        for i in range(n):
            row = table[LAYERS[layer_of[i]]]
            row["calls"] += 1
            row["self_s"] += (dur[i] - child[i]) / 1e9
            if not (above[i] >> layer_of[i]) & 1:
                row["total_s"] += dur[i] / 1e9
        for nid, count in enumerate(self.raised):
            table[LAYERS[self.name_layer[nid]]]["raised"] += count
        return table

    def total_counts(self) -> dict[str, int]:
        total = self._new_counts()
        for counts in self.job_counts.values():
            for k, v in counts.items():
                total[k] += v
        return total

    def metrics(self) -> dict[str, float]:
        out = {}
        for layer, row in self.layer_table().items():
            for field, value in row.items():
                out[f"{layer}.{field}"] = value
        c = self.total_counts()
        out.update({k: c[k] for k in REPORTED_COUNTERS})
        out["polyring.mul.kept_ratio"] = _ratio(c["polyring.mul.kept"], c["polyring.mul.candidates"])
        out["schur.repeat_ratio"] = _ratio(c["schur.repeats"], c["schur.lookups"])
        out["tau.coeff_nonzero_ratio"] = _ratio(c["tau.nonzero"], c["tau.coefficients"])
        return out

    def write_spans(self, path: Path):
        """One JSON list per line: name, start_ns, end_ns, parent, job."""
        with path.open("w") as fh:
            for i in range(len(self.span_name)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.span_name[i]],
                            self.span_start[i],
                            self.span_end[i],
                            self.span_parent[i],
                            self.span_job[i],
                        ]
                    )
                    + "\n"
                )


def pairs_within_cutoffs(a, b) -> int:
    """How many of the |a|*|b| candidate monomials of a*b survive the
    product's truncation.  Weights add under multiplication, so counting
    pairs of weight buckets gives the number without forming a product."""
    cutoffs = {}
    for g in a.table.gradings:
        bounds = [c for c in (a.cutoffs.get(g), b.cutoffs.get(g)) if c is not None]
        if bounds:
            cutoffs[g] = min(bounds)

    def buckets(p):
        out: dict[tuple[int, ...], int] = {}
        for key in p.terms:
            w = tuple(p.table.weight_of(key, g) for g in cutoffs)
            out[w] = out.get(w, 0) + 1
        return out

    bound = tuple(cutoffs.values())
    right = buckets(b).items()
    return sum(
        n * m
        for w, n in buckets(a).items()
        for v, m in right
        if all(x + y <= c for x, y, c in zip(w, v, bound))
    )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
