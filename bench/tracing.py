"""Spans around efanet's public functions, recorded from outside the package.

The tracer replaces functions and methods of the imported efanet modules with
wrappers that append one span per call to an in-memory list:
``[name, phase, start_ns, end_ns, parent, info, mem_start, mem_end]``.
Every module-level name bound to a wrapped function is replaced, so names
that one efanet module imports from another are covered too.

In light mode (the untraced run) only the calls that delimit a training step
or an evaluated image are wrapped.  In full mode every layer below is wrapped
and an ``analyze.FlopRecorder`` is installed through
``engine.set_flop_recorder``; its ``scope`` field is the module scope current
when an engine op runs, so a graph node's backward time is charged to the
scope that created it.

tracemalloc slows numpy-heavy Python code by up to 3x, so it runs only in the
MEMORY phase, whose spans give the memory metrics and nothing else; the
mem_start/mem_end fields of other spans are None.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# Engine ops that build graph nodes, with the group they are reported under.
ENGINE_OPS = {
    "conv2d": "conv2d", "batch_norm": "batch_norm",
    "bilinear_resize": "bilinear_resize",
    "add": "pointwise", "sub": "pointwise", "mul": "pointwise",
    "div": "pointwise", "relu": "pointwise", "sigmoid": "pointwise",
    "exp": "pointwise", "log": "pointwise",
    "sum_all": "other", "mean_all": "other", "global_avg_pool": "other",
    "concat_channels": "other",
}

# Public functions timed per call: (module, function).
CALLS = [
    ("train", "train"), ("train", "evaluate"), ("train", "predict_probability"),
    ("model", "total_loss"), ("engine", "backward"),
    ("pipeline", "augment"), ("pipeline", "rescale"),
    ("pipeline", "sobel_edge_gt"), ("pipeline", "load_sample"),
    ("metrics", "evaluate_pair"), ("metrics", "dice_iou"),
    ("metrics", "s_measure"), ("metrics", "weighted_fmeasure"),
    ("metrics", "e_measure_mean"), ("metrics", "pr_curves"),
    ("dataio", "read_pnm"),
    ("checkpoint", "save_checkpoint"), ("checkpoint", "load_checkpoint"),
]
LIGHT_CALLS = [("train", "train"), ("train", "evaluate"),
               ("metrics", "evaluate_pair")]
# Calls whose tracemalloc peak is recorded, above the level at their entry.
PEAK_CALLS = ("train.train", "train.evaluate")

# Scopes reported per layer, as the analyzer names them; "decoder" is the
# model's own code outside all of them (self time).
SCOPES = (["backbone.stem"] + [f"backbone.levels.level{i}" for i in range(1, 6)]
          + ["egm"] + [f"scms.scm{i}" for i in range(1, 6)]
          + [f"cfms.cfm{i}" for i in range(1, 5)] + ["edge_attn"]
          + [f"heads.head{i}" for i in range(1, 5)] + ["decoder"])

NAME, PHASE, T0, T1, PARENT, INFO, M0, M1 = range(8)
MEMORY = "memory"


class Tracer:
    def __init__(self, full):
        self.full = full
        self.phase = None          # spans are recorded only while set
        self.memory = False        # tracemalloc is running
        self.spans = []
        self._open = []
        self._patches = []
        self.scopes = None

    # -- recording -------------------------------------------------------

    def set_phase(self, phase):
        if (phase == MEMORY) != self.memory:
            self.memory = phase == MEMORY
            (tracemalloc.start if self.memory else tracemalloc.stop)()
        self.phase = phase

    def begin(self, name, info=None):
        mem = tracemalloc.get_traced_memory()[0] if self.memory else None
        idx = len(self.spans)
        self.spans.append([name, self.phase, time.perf_counter_ns(), 0,
                           self._open[-1] if self._open else -1, info, mem, None])
        self._open.append(idx)
        return idx

    def end(self, idx):
        span = self.spans[idx]
        span[T1] = time.perf_counter_ns()
        if self.memory:
            span[M1] = tracemalloc.get_traced_memory()[0]
        self._open.pop()

    # -- wrappers --------------------------------------------------------

    def _wrap_call(self, fn, name):
        tracer = self
        peak = name in PEAK_CALLS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            if peak and tracer.memory:
                tracemalloc.reset_peak()
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                if peak and tracer.memory:
                    tracer.spans[idx][INFO] = tracemalloc.get_traced_memory()[1]
        return traced

    def _wrap_module_call(self, fn):
        tracer, wanted = self, set(SCOPES)

        @functools.wraps(fn)
        def traced(module, *args, **kwargs):
            scope = module.scope
            if tracer.phase is None or (scope not in wanted and scope != "top"):
                return fn(module, *args, **kwargs)
            if scope == "top":
                x = args[0]
                idx = tracer.begin("model.forward", (x.shape[0], x.shape[2]))
            else:
                idx = tracer.begin("module", scope)
            try:
                return fn(module, *args, **kwargs)
            finally:
                tracer.end(idx)
        return traced

    def _wrap_op(self, fn, op, analyze):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            scope = tracer.scopes.scope
            idx = tracer.begin("op")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            graph = out._backward_fn is not None
            if graph:
                out._backward_fn = tracer._wrap_backward(out._backward_fn,
                                                         op, scope)
            flops = 0
            if op == "conv2d":
                n, cout, oh, ow = out.shape
                _, cin, k, _ = args[1].shape
                flops = n * analyze.single_conv_cost(cin, cout, k, oh, ow)[1]
            tracer.spans[idx][INFO] = (op, scope, graph, flops)
            return out
        return traced

    def _wrap_backward(self, bwd, op, scope):
        tracer = self

        def traced(g):
            if tracer.phase is None:
                return bwd(g)
            idx = tracer.begin("bwd", (op, scope))
            try:
                return bwd(g)
            finally:
                tracer.end(idx)
        return traced

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, original, wrapped):
        for mod in [m for k, m in sys.modules.items()
                    if k == "efanet" or k.startswith("efanet.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self):
        from efanet import analyze, engine, layers
        mods = {name: sys.modules[f"efanet.{name}"] for name, _ in CALLS}
        for mod, fn in (CALLS if self.full else LIGHT_CALLS):
            original = getattr(mods[mod], fn)
            self._replace_everywhere(original,
                                     self._wrap_call(original, f"{mod}.{fn}"))
        step = engine.Adam.step
        self._patches.append((engine.Adam, "step", step))
        engine.Adam.step = self._wrap_call(step, "engine.Adam.step")
        if not self.full:
            return
        for op in ENGINE_OPS:
            original = getattr(engine, op)
            self._replace_everywhere(original,
                                     self._wrap_op(original, op, analyze))
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("efanet."):
                continue
            for cls in list(vars(mod).values()):
                if (isinstance(cls, type) and issubclass(cls, layers.Module)
                        and "__call__" in vars(cls)
                        and cls.__module__ == mod.__name__):
                    self._patches.append((cls, "__call__", cls.__call__))
                    cls.__call__ = self._wrap_module_call(cls.__call__)
        self.scopes = analyze.FlopRecorder()
        engine.set_flop_recorder(self.scopes)

    def uninstall(self):
        from efanet import engine
        self.set_phase(None)
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()
        if self.full:
            engine.set_flop_recorder(None)


# -- reading the spans -------------------------------------------------------


def _ms(span):
    return (span[T1] - span[T0]) / 1e6


def _mean(values):
    return sum(values) / len(values) if values else None


def step_intervals(spans, phase):
    """Per training step: (interval_ms, data, forward, loss, backward, optimizer).

    A step runs from one Adam.step return to the next within one train()
    call, so the first step of each call has no interval and is left out.
    Phase parts other than the optimizer are None in light mode.
    """
    by_parent = {}
    for i, s in enumerate(spans):
        if s[PHASE] == phase and s[PARENT] >= 0:
            by_parent.setdefault(s[PARENT], []).append(s)
    steps = []
    for i, s in enumerate(spans):
        if s[NAME] != "train.train" or s[PHASE] != phase:
            continue
        children = by_parent.get(i, [])
        adam = [c for c in children if c[NAME] == "engine.Adam.step"]
        for prev, cur in zip(adam, adam[1:]):
            inside = {c[NAME]: c for c in children
                      if prev[T1] <= c[T0] and c[T1] <= cur[T0]}
            fwd = inside.get("model.forward")
            parts = [None] * 4
            if fwd is not None:
                parts = [(fwd[T0] - prev[T1]) / 1e6, _ms(fwd),
                         _ms(inside["model.total_loss"]),
                         _ms(inside["engine.backward"])]
            steps.append([(cur[T1] - prev[T1]) / 1e6] + parts + [_ms(cur)])
    return steps


def image_intervals(spans, phase):
    """Per evaluated image: ms from one evaluate_pair return to the next
    within one evaluate() call (the first image of each call is left out)."""
    out = []
    last = {}
    for s in spans:
        if s[NAME] == "metrics.evaluate_pair" and s[PHASE] == phase:
            if s[PARENT] in last:
                out.append((s[T1] - last[s[PARENT]]) / 1e6)
            last[s[PARENT]] = s[T1]
    return out


@functools.lru_cache(maxsize=None)
def _group_of(scope):
    """The reported scope an innermost module scope belongs to, or None."""
    return next((g for g in SCOPES if scope == g or scope.startswith(g + ".")),
                None)


def scope_flops(report):
    """The analyzer's per-layer forward FLOPs summed per reported scope."""
    out = dict.fromkeys(SCOPES, 0)
    for scope, flops in report.layer_flops.items():
        group = _group_of(scope)
        if group is not None:
            out[group] += flops
    return out


def phase_metrics(spans, phase, flops, peak_call):
    """Every per-layer metric measurable from one phase's spans; a metric
    whose layer the phase did not exercise is None, and so is every memory
    metric outside the MEMORY phase.

    `flops` maps a reported scope to the analyzer's exact forward FLOPs
    for one image at the resolution the model ran at; engine.traced_peak_mib
    is the tracemalloc peak inside `peak_call` above the level at its entry.
    """
    mine = [s for s in spans if s[PHASE] == phase]
    named = {}
    for s in mine:
        named.setdefault(s[NAME], []).append(s)
    mib = 1.0 / 2 ** 20
    m = {}

    steps = step_intervals(spans, phase)
    parts = [row for row in steps if row[1] is not None]
    for k, key in enumerate(("data", "forward", "loss", "backward",
                             "optimizer"), 1):
        m[f"train.step.{key}_ms"] = _mean([row[k] for row in parts])

    forwards = named.get("model.forward", [])
    backwards = named.get("engine.backward", [])
    nf, nb = len(forwards), len(backwards)
    images = len(named.get("metrics.evaluate_pair", []))

    def per_call(name):
        return _mean([_ms(s) for s in named.get(name, [])])

    def per_image(name):
        spans_ = named.get(name, [])
        return sum(_ms(s) for s in spans_) / images if images and spans_ else None

    m["train.predict_probability_ms"] = per_call("train.predict_probability")

    ops = [s for s in named.get("op", []) if s[INFO] is not None]
    bwds = named.get("bwd", [])
    for group in ("conv2d", "batch_norm", "bilinear_resize", "pointwise"):
        fwd_ms = sum(_ms(s) for s in ops if ENGINE_OPS[s[INFO][0]] == group)
        bwd_ms = sum(_ms(s) for s in bwds if ENGINE_OPS[s[INFO][0]] == group)
        m[f"engine.{group}.fwd_ms"] = fwd_ms / nf if nf else None
        m[f"engine.{group}.bwd_ms"] = bwd_ms / nb if nb else None
    conv = [s for s in ops if s[INFO][0] == "conv2d"]
    conv_s = sum(_ms(s) for s in conv) / 1e3
    m["engine.conv2d.gflops"] = (sum(s[INFO][3] for s in conv) / conv_s / 1e9
                                 if conv_s else None)
    graph_ops = [s for s in ops if s[INFO][2]]
    m["engine.nodes_per_step"] = len(graph_ops) / nb if nb else None
    memory = phase == MEMORY
    m["engine.retained_mib"] = _mean(
        [(s[M0] - spans[s[PARENT]][M0]) * mib for s in backwards
         if spans[s[PARENT]][NAME] == "train.train"]) if memory else None
    m["engine.traced_peak_mib"] = _mean(
        [(s[INFO] - s[M0]) * mib for s in named.get(peak_call, [])]
    ) if memory else None

    fwd_scope, bwd_scope, kept_scope = {}, {}, {}
    for s in named.get("module", []):
        fwd_scope[s[INFO]] = fwd_scope.get(s[INFO], 0.0) + _ms(s)
    listed = sum(fwd_scope.values())
    fwd_scope["decoder"] = sum(_ms(s) for s in forwards) - listed
    for s in bwds:
        g = _group_of(s[INFO][1])
        if g is not None:
            bwd_scope[g] = bwd_scope.get(g, 0.0) + _ms(s)
    for s in graph_ops:
        g = _group_of(s[INFO][1])
        if g is not None and s[M0] is not None:
            kept_scope[g] = kept_scope.get(g, 0) + s[M1] - s[M0]
    batch = _mean([s[INFO][0] for s in forwards])
    for g in SCOPES:
        fwd = fwd_scope.get(g, 0.0) / nf if nf else None
        m[f"scope.{g}.fwd_ms"] = fwd
        m[f"scope.{g}.bwd_ms"] = bwd_scope.get(g, 0.0) / nb if nb else None
        m[f"scope.{g}.retained_mib"] = (kept_scope.get(g, 0) * mib / nb
                                        if nb and memory else None)
        m[f"scope.{g}.gflops"] = (flops[g] * batch / (fwd / 1e3) / 1e9
                                  if fwd else None)

    for fn in ("augment", "rescale", "sobel_edge_gt", "load_sample"):
        m[f"pipeline.{fn}_ms"] = per_call(f"pipeline.{fn}")
    for fn in ("e_measure_mean", "weighted_fmeasure", "s_measure", "dice_iou",
               "evaluate_pair", "pr_curves"):
        m[f"metrics.{fn}_ms"] = per_image(f"metrics.{fn}")
    m["dataio.read_pnm_ms"] = per_call("dataio.read_pnm")
    m["checkpoint.save_ms"] = per_call("checkpoint.save_checkpoint")
    m["checkpoint.load_ms"] = per_call("checkpoint.load_checkpoint")
    return m
