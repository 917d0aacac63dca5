"""Per-layer tracing from outside the program.

The tracer wraps public functions of `hilfer_mnc` in every module namespace
that holds them (a function imported with `from .x import f` lives on in the
importer's globals, so patching only the defining module would miss calls).
Each wrapper records a span: its duration, minus the time covered by nested
wrapped calls, is the callee's self time. Counts are taken at the same
boundaries, from argument and result shapes.

Three count identities are checked on every traced op, so a wrapper that
misses calls fails loudly instead of under-reporting:

- one `solver.solve` makes `iterations + 1` operator calls;
- one `mnc.darbo_iterate` pushes `p_max * m0 + convex_samples * p_max * (p_max - 1) / 2`
  rows through the operator, for a seed ensemble of m0 rows (1080 for the
  bundled scenario: 30 members, 30 convex samples, p_max 8);
- an operator call that misses the weight-matrix cache on n nodes makes
  n - 1 `panel_weights` calls.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

import numpy as np

# (module, attribute) of each wrapped function; "Class.method" for a classmethod
TARGETS = (
    ("cli", "main"),
    ("config", "parse_config"),
    ("solvability", "certify"),
    ("equations", "estimate_lipschitz"),
    ("solver", "solve"),
    ("mnc", "darbo_iterate"),
    ("mnc", "ensemble_modulus"),
    ("mnc", "FunctionEnsemble.from_matrix"),
    ("equations", "apply_operator"),
    ("equations", "apply_operator_batch"),
    ("expressions", "evaluate"),
    ("fractional", "panel_weights"),
    ("fractional", "product_quadrature"),
    ("special_functions", "k_gamma"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


SPANS = tuple(span_name(m, a) for m, a in TARGETS)

# counters beyond calls and self time: name -> (unit, span that counts it);
# flops and bytes are computed from array shapes as a dense (m x n)(n x n) product
COUNTERS = {
    "mnc.ensemble_modulus.rows": ("count", "mnc.ensemble_modulus"),
    "equations.apply_operator_batch.rows": ("count", "equations.apply_operator_batch"),
    "expressions.evaluate.elements": ("count", "expressions.evaluate"),
    "fractional.panel_weights.points": ("count", "fractional.panel_weights"),
    "solver.iterations": ("count", "solver.solve"),
    "equations.integral.flops_computed": ("flop", "equations.apply_operator_batch"),
    "equations.integral.bytes_computed": ("B", "equations.apply_operator_batch"),
}

# every per-layer metric a traced run reports: name -> (unit, better)
PER_LAYER = {}
for _span in SPANS:
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower")
for _name, (_unit, _owner) in COUNTERS.items():
    PER_LAYER[_name] = (_unit, "lower")
PER_LAYER["equations.apply_operator_batch.rows_per_call"] = ("rows/call", "higher")
# deltas of the weight-matrix lru_cache statistics, absent when the cache is gone
PER_LAYER["equations.weights.cache_hits"] = ("count", "higher")
PER_LAYER["equations.weights.cache_misses"] = ("count", "lower")
PER_LAYER["setup.fractional.panel_weights.calls"] = ("count", "lower")
PER_LAYER["setup.equations.weights.cache_misses"] = ("count", "lower")
PER_LAYER["trace.overhead_s"] = ("s", "lower")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _ensemble_rows(e) -> int:
    members = getattr(e, "members", None)
    if members is not None:
        return len(members)
    return int(np.shape(e.values)[0])


class Tracer:
    """Wraps the TARGETS while installed and aggregates one op at a time."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self._reset()

    def _reset(self) -> None:
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.violations: list[str] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        import hilfer_mnc  # noqa: F401  (loads every submodule)

        modules = [
            m for name, m in sys.modules.items()
            if name == "hilfer_mnc" or name.startswith("hilfer_mnc.")
        ]
        self.absent = []
        for module, attr in TARGETS:
            name = span_name(module, attr)
            mod = sys.modules.get(f"hilfer_mnc.{module}")
            hooks = _HOOKS.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if not isinstance(raw, classmethod):
                    self.absent.append(name)
                    continue
                self.originals[name] = raw.__func__
                wrapped = self._wrap(name, raw.__func__, *hooks)
                setattr(cls, meth, classmethod(wrapped))
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            self.originals[name] = orig
            wrapped = self._wrap(name, orig, *hooks)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def _wrap(self, name, fn, pre, post):
        stack = self._stack
        clock = time.perf_counter

        def hook(f, *hook_args):
            # a call the hook cannot read (say, a renamed parameter) is a loud
            # trace failure, never an exception raised into the program
            try:
                return f(self, *hook_args)
            except (LookupError, TypeError, AttributeError, ValueError) as exc:
                self.violations.append(f"{name}: the tracer could not read the call ({exc!r})")
                return None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = hook(pre, args, kwargs) if pre is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
            if post is not None:
                hook(post, state, args, kwargs, result)
            return result

        return wrapper

    # -- per-op aggregation -------------------------------------------------

    def start_op(self) -> None:
        self._reset()
        self._cache0 = _cache_info()

    def end_op(self) -> dict:
        """Flat record of the op just traced: counts, self times, violations."""
        rec: dict = {}
        for name in SPANS:
            if name in self.absent:
                continue
            rec[f"{name}.calls"] = self.calls[name]
            rec[f"{name}.self_s"] = self.self_s[name]
        for key, (_, owner) in COUNTERS.items():
            if owner not in self.absent:
                rec[key] = self.counts[key]
        if "equations.apply_operator_batch" not in self.absent:
            calls = self.calls["equations.apply_operator_batch"]
            rows = self.counts["equations.apply_operator_batch.rows"]
            rec["equations.apply_operator_batch.rows_per_call"] = rows / calls if calls else 0.0
        cache1 = _cache_info()
        if self._cache0 is not None and cache1 is not None:
            rec["equations.weights.cache_hits"] = cache1.hits - self._cache0.hits
            rec["equations.weights.cache_misses"] = cache1.misses - self._cache0.misses
        return {"metrics": rec, "violations": list(self.violations)}


def _cache_info():
    mod = sys.modules.get("hilfer_mnc.equations")
    fn = getattr(getattr(mod, "_weight_matrix", None), "cache_info", None)
    return fn() if fn is not None else None


# -- hooks: pre(tracer, args, kwargs) -> state; post(tracer, state, args, kwargs, result)

def _post_modulus(t, state, args, kwargs, result):
    t.counts["mnc.ensemble_modulus.rows"] += _ensemble_rows(_arg(args, kwargs, 0, "e"))


def _pre_operator(t, args, kwargs):
    info = _cache_info()
    return (info.misses if info else None, t.calls["fractional.panel_weights"])


def _post_operator(t, state, args, kwargs, result):
    nodes = _arg(args, kwargs, 1, "nodes")
    m, n = np.shape(_arg(args, kwargs, 2, "values"))
    t.counts["equations.apply_operator_batch.rows"] += m
    t.counts["equations.integral.flops_computed"] += 2 * m * n * n
    t.counts["equations.integral.bytes_computed"] += 8 * (n * n + 2 * m * n)
    misses0, pw0 = state
    info = _cache_info()
    if misses0 is None or info is None:
        return
    cold = info.misses - misses0
    if cold > 0:
        got = t.calls["fractional.panel_weights"] - pw0
        want = cold * (len(nodes) - 1)
        if got != want:
            t.violations.append(
                f"cold weight build on {len(nodes)} nodes: {got} panel_weights calls traced, "
                f"expected {want}"
            )


def _post_evaluate(t, state, args, kwargs, result):
    t.counts["expressions.evaluate.elements"] += int(np.size(result))


def _post_panel_weights(t, state, args, kwargs, result):
    t.counts["fractional.panel_weights.points"] += len(_arg(args, kwargs, 1, "s"))


def _pre_solve(t, args, kwargs):
    return t.calls["equations.apply_operator_batch"]


def _post_solve(t, state, args, kwargs, result):
    t.counts["solver.iterations"] += result.iterations
    got = t.calls["equations.apply_operator_batch"] - state
    if got != result.iterations + 1:
        t.violations.append(
            f"solve with {result.iterations} iterations: {got} operator calls traced, "
            f"expected {result.iterations + 1}"
        )


def _pre_darbo(t, args, kwargs):
    return t.counts["equations.apply_operator_batch.rows"]


def _post_darbo(t, state, args, kwargs, result):
    bound = inspect.signature(t.originals["mnc.darbo_iterate"]).bind(*args, **kwargs)
    bound.apply_defaults()
    p = bound.arguments["p_max"]
    cs = bound.arguments["convex_samples"]
    m0 = _ensemble_rows(bound.arguments["seed"])
    want = p * m0 + cs * p * (p - 1) // 2
    got = t.counts["equations.apply_operator_batch.rows"] - state
    if got != want:
        t.violations.append(
            f"darbo_iterate (m0={m0}, p_max={p}, convex_samples={cs}): {got} operator rows "
            f"traced, expected {want}"
        )


_HOOKS = {
    "mnc.ensemble_modulus": (None, _post_modulus),
    "equations.apply_operator_batch": (_pre_operator, _post_operator),
    "expressions.evaluate": (None, _post_evaluate),
    "fractional.panel_weights": (None, _post_panel_weights),
    "solver.solve": (_pre_solve, _post_solve),
    "mnc.darbo_iterate": (_pre_darbo, _post_darbo),
}


def reduce_ops(records: list[dict]) -> tuple[dict, list[str]]:
    """Per-op medians of every per-layer value, and notes on counts that moved."""
    notes = []
    out = {}
    keys = records[0]["metrics"].keys()
    for key in keys:
        values = [r["metrics"][key] for r in records]
        if len(set(values)) == 1:
            out[key] = values[0]
            continue
        out[key] = statistics.median(values)
        if not key.endswith("self_s"):
            notes.append(f"{key} differs between traced ops: {sorted(set(values))}")
    return out, notes
