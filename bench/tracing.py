"""In-memory spans around calls into steingrad's layers, from outside the package.

``Tracer.install`` rebinds each traced public function in every
``steingrad`` module namespace that holds it (``from .x import f`` copies
the name, so the defining module alone is not enough), and
``Tracer.uninstall`` puts the originals back.  The package itself is never
edited.

Each call becomes a frame with a start, an end and its enclosing frame.
Frames of "span" functions are kept as spans (id, parent, name, start, end,
attributes) and written out when the benchmark ends; "hot" functions,
called tens of thousands of times per rep, are only aggregated into
counters.  A frame's self time is its duration minus the durations of its
direct child frames, so a layer's self time is the time spent in its own
code and not in a traced layer below it.
"""

import sys
import time

# (layer, module, attribute, mode); "Cls.meth" rebinds a method on the class
TARGETS = (
    ("cli", "steingrad.cli", "main", "span"),
    ("sampler", "steingrad.sampler", "run_hmc", "span"),
    ("sampler", "steingrad.sampler", "leapfrog", "hot"),
    ("estimators", "steingrad.estimators", "fit_estimator", "span"),
    ("estimators", "steingrad.estimators", "FittedEstimator.predict", "hot"),
    ("estimators", "steingrad.estimators", "FittedEstimator.grads_at_train", "span"),
    ("kernels", "steingrad.kernels", "build_matrices", "span"),
    ("kernels", "steingrad.kernels", "cross_hess_trace_matrix", "span"),
    ("kernels", "steingrad.kernels", "median_heuristic", "span"),
    ("linalg", "steingrad.linalg", "solve_symmetric", "span"),
    ("discrepancy", "steingrad.discrepancy", "ksd_v", "span"),
    ("discrepancy", "steingrad.discrepancy", "ksd_u", "span"),
    ("discrepancy", "steingrad.discrepancy", "ksd_to_target", "span"),
)

# work counted on hot calls: frame name -> (counter, argument -> amount)
HOT_WORK = {
    "estimators.predict": ("estimators.predict.points", lambda args: len(args[1])),
    "sampler.leapfrog": ("sampler.leapfrog.steps", lambda args: int(args[3])),
}

# score callbacks handed to the sampler and to ksd_to_target: frame name ->
# (argument index, counter name)
CALLBACK_ARGS = {
    "sampler.run_hmc": (1, "sampler.score_fn"),
    "discrepancy.ksd_to_target": (1, "discrepancy.score_fn"),
}

# library kind -> CLI estimator name, for estimators.fit.s.<name>
CLI_KIND = {
    "kde": "kde",
    "stein-nonparam-v": "stein-v",
    "score-rbf": "score",
    "stein-param-v": "stein-param-v",
}
SUBCOMMANDS = ("estimate", "ksd", "banana", "entropy-check")

# computed, not measured: float64 bytes of the (n, d) samples read plus the
# arrays each kernel function returns
_KERNEL_OUT_ELEMS = {
    "kernels.build_matrices": lambda n, d: 2 * n * n + n * d,
    "kernels.cross_hess_trace_matrix": lambda n, d: n * n,
    "kernels.median_heuristic": lambda n, d: n * (n - 1) // 2,
}


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "attrs")

    def __init__(self, name, start, span_id, attrs):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.attrs = attrs


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans = []  # span id == index; times relative to creation
        self.stats = {}  # frame name -> [calls, total_s, self_s]
        self.work = {}  # HOT_WORK counter -> amount
        self._stack = []
        self._saved = []
        self._t0 = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _enter(self, name, attrs=None):
        span_id = None
        if attrs is not None:
            span_id = len(self.spans)
            self.spans.append(None)  # filled on exit
        frame = _Frame(name, time.perf_counter(), span_id, attrs)
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        if self._stack:
            self._stack[-1].child += dur
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame.child
        if frame.span_id is not None:
            parent = next(
                (f.span_id for f in reversed(self._stack) if f.span_id is not None),
                None,
            )
            self.spans[frame.span_id] = {
                "id": frame.span_id,
                "parent": parent,
                "name": frame.name,
                "start": frame.start - self._t0,
                "end": end - self._t0,
                "attrs": frame.attrs,
            }

    def _counted(self, name, fn):
        work = HOT_WORK.get(name)

        def wrapper(*args, **kwargs):
            if work is not None:
                self.work[work[0]] = self.work.get(work[0], 0) + work[1](args)
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            attrs = _call_attrs(name, args)
            if name in CALLBACK_ARGS:
                idx, cb_name = CALLBACK_ARGS[name]
                args = args[:idx] + (self._counted(cb_name, args[idx]),) + args[idx + 1:]
            frame = self._enter(name, attrs)
            try:
                result = fn(*args, **kwargs)
                attrs.update(_result_attrs(name, result))
                return result
            finally:
                self._exit(frame)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Rebind every target in the loaded steingrad modules."""
        for layer, modname, attr, mode in TARGETS:
            name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            # a target the package no longer has reads as zero work
            orig = vars(owner).get(attr)
            if orig is None:
                continue
            if owner is not sys.modules[modname]:
                holders = [(owner, attr)]
            else:
                holders = [
                    (mod, key)
                    for mname, mod in list(sys.modules.items())
                    if mod is not None and (mname == "steingrad" or mname.startswith("steingrad."))
                    for key, val in list(vars(mod).items())
                    if val is orig
                ]
            wrapper = self._counted(name, orig) if mode == "hot" else self._spanned(name, orig)
            for owner, key in holders:
                self._saved.append((owner, key, orig))
                setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved = []

    # -- per-layer metrics -----------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics of everything recorded so far."""

        def calls(n):
            return self.stats.get(n, [0, 0.0, 0.0])[0]

        def total(n):
            return self.stats.get(n, [0, 0.0, 0.0])[1]

        def self_s(n):
            return self.stats.get(n, [0, 0.0, 0.0])[2]

        def span_sum(pred, key=None):
            return sum(
                (s["attrs"].get(key, 0) if key else s["end"] - s["start"])
                for s in self.spans
                if pred(s)
            )

        hmc = [s["attrs"] for s in self.spans if s["name"] == "sampler.run_hmc"]
        run_hmc_s = total("sampler.run_hmc")
        steps = self.work.get("sampler.leapfrog.steps", 0)
        m = {
            "sampler.run_hmc.s": run_hmc_s,
            "sampler.leapfrog.calls": calls("sampler.leapfrog"),
            "sampler.leapfrog.self_s": self_s("sampler.leapfrog"),
            "sampler.score_fn.calls": calls("sampler.score_fn"),
            "sampler.score_fn.s": total("sampler.score_fn"),
            "sampler.divergences": sum(a["n_divergent"] for a in hmc),
            "sampler.accept_ratio": (
                sum(a["acceptance_rate"] for a in hmc) / len(hmc) if hmc else 0.0
            ),
            "sampler.steps_per_s": steps / run_hmc_s if run_hmc_s > 0 else 0.0,
        }
        for kind in CLI_KIND.values():
            m[f"estimators.fit.s.{kind}"] = span_sum(
                lambda s: s["name"] == "estimators.fit_estimator" and s["attrs"]["kind"] == kind
            )
        m["estimators.grads_at_train.s"] = total("estimators.grads_at_train")
        m["estimators.predict.calls"] = calls("estimators.predict")
        m["estimators.predict.points"] = self.work.get("estimators.predict.points", 0)
        m["estimators.predict.self_s"] = self_s("estimators.predict")
        m["kernels.build_matrices.calls"] = calls("kernels.build_matrices")
        m["kernels.build_matrices.s"] = total("kernels.build_matrices")
        m["kernels.cross_hess_trace_matrix.s"] = total("kernels.cross_hess_trace_matrix")
        m["kernels.median_heuristic.s"] = total("kernels.median_heuristic")
        m["kernels.bytes_computed"] = span_sum(
            lambda s: s["name"] in _KERNEL_OUT_ELEMS, "bytes_computed"
        )
        m["linalg.solve.calls"] = calls("linalg.solve_symmetric")
        m["linalg.solve.s"] = total("linalg.solve_symmetric")
        is_solve = lambda s: s["name"] == "linalg.solve_symmetric"  # noqa: E731
        m["linalg.solve.rhs_cols"] = span_sum(is_solve, "rhs_cols")
        m["linalg.solve.jitter_retries"] = span_sum(is_solve, "level")

        # a KSD computed inside another discrepancy call is part of that call
        def ksd_entry(s):
            parent = self.spans[s["parent"]]["name"] if s["parent"] is not None else ""
            return s["name"].startswith("discrepancy.") and not parent.startswith("discrepancy.")

        m["discrepancy.ksd.calls"] = sum(1 for s in self.spans if ksd_entry(s))
        m["discrepancy.ksd.s"] = span_sum(ksd_entry)
        m["discrepancy.score_fn.calls"] = calls("discrepancy.score_fn")
        for sub in SUBCOMMANDS:
            m[f"cli.main.s.{sub}"] = span_sum(
                lambda s: s["name"] == "cli.main" and s["attrs"]["subcommand"] == sub
            )
        m["cli.self_s"] = self_s("cli.main")
        return m


def _call_attrs(name, args):
    """Span attributes known at call time: work sizes from argument shapes."""
    if name == "cli.main":
        return {"subcommand": args[0][0]}
    if name == "estimators.fit_estimator":
        return {"kind": CLI_KIND.get(args[0], args[0])}
    if name == "linalg.solve_symmetric":
        rhs = args[1]
        return {"K": int(rhs.shape[0]), "rhs_cols": 1 if rhs.ndim == 1 else int(rhs.shape[1])}
    if name in _KERNEL_OUT_ELEMS:
        n, d = args[0].shape
        return {"K": n, "d": d, "bytes_computed": 8 * (n * d + _KERNEL_OUT_ELEMS[name](n, d))}
    if name.startswith("discrepancy."):
        return {"K": len(args[0])}
    return {}


def _result_attrs(name, result):
    if name == "linalg.solve_symmetric":
        return {"level": int(result[2])}
    if name == "sampler.run_hmc":
        return {"n_divergent": int(result.n_divergent), "acceptance_rate": float(result.acceptance_rate)}
    return {}
