"""In-memory span tracer for the traced benchmark run.

The tracer replaces chosen public functions of the `softprop` modules with
wrappers that record one span per call: name, start, end, parent span, the
phase of the run (setup, timed, check), the minor page faults and kernel
CPU time of the process during the call, and a few call attributes (batch
size, warm or cold solve, Newton iterations) read from the arguments and
the result. A function is replaced in every `softprop` module that holds
it under its own name, so calls the program makes between its modules are
traced as well as the calls the benchmark makes. Spans stay in memory and
are written out once, when the run ends.

The time the wrappers spend on their own bookkeeping is summed, so the
traced run can report its overhead next to the untraced run's figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    phase: str
    minflt: int = 0
    sys_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) == 1 else int(shape[0])


def _net(spec):
    return "decoder" if spec.sizes[-1] == 3 else "encoder"


def _describe_solve_equilibrium(args, out):
    return {"warm": args.get("x0") is not None, "iters": out.stats.iterations,
            "stages": out.stats.stages}


def _describe_solve_hand(args, out):
    return {"warm": args.get("x0s") is not None,
            "iters": sum(ff.stats.iterations for ff in out[1])}


def _describe_predict(args, out):
    return {"batch": _rows(args["strains"])}


def _describe_nn(args, out):
    x = args.get("x")
    rows = _rows(x) if x is not None else _rows(args["grad_y"])
    return {"net": _net(args["spec"]), "rows": rows}


def _describe_adam(args, out):
    return {"n_params": int(out.size)}


def _describe_frames_in(args, out):
    return {"frames": len(args["frames"])}


def _describe_frames_out(args, out):
    return {"frames": len(out[0])}


def _describe_cma(args, out):
    history = out[2]
    evals = history[-1]["evaluations"] if history else 1
    return {"generations": len(history), "evals": int(evals)}


def _describe_track(args, out):
    return {"steps": len(out.per_step_error_mm)}


# (module, function, describe) for every traced call site.
TRACED = (
    ("simulator", "generate_dataset", None),
    ("simulator", "rollout_commands", None),
    ("simulator", "solve_hand", _describe_solve_hand),
    ("simulator", "solve_equilibrium", _describe_solve_equilibrium),
    ("datafiles", "save_dataset", _describe_frames_in),
    ("datafiles", "load_dataset", _describe_frames_out),
    ("estimator", "train", None),
    ("estimator", "evaluate", _describe_frames_in),
    ("estimator", "samples_from_frames", None),
    ("estimator", "predict_displacements", _describe_predict),
    ("nn", "forward_cache", _describe_nn),
    ("nn", "backward", _describe_nn),
    ("nn", "adam_step", _describe_adam),
    ("geometry", "chamfer_ucd", None),
    ("geometry", "mean_nn_distance", None),
    ("calibration", "align_domains", None),
    ("calibration", "cma_es_minimize", _describe_cma),
    ("calibration", "alignment_loss", None),
    ("calibration", "predict_observed_cloud", None),
    ("sensors", "strain_array_from_resistance", None),
    ("controller", "fit_actuation_directions", None),
    ("controller", "track_trajectory", _describe_track),
    ("controller", "shape_step", None),
)


class Tracer:
    """Records spans around traced functions; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.bookkeeping_s = {"setup": 0.0, "timed": 0.0, "check": 0.0}
        self._stack = []
        self._next_id = 0
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def record(self, name, fn, args, kwargs, describe=None, bind=None):
        """Call fn(*args, **kwargs) inside a span and return its result."""
        b0 = time.perf_counter()
        span_id, parent = self._open()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            self._stack.pop()
        attrs = {}
        if describe is not None:
            bound = bind(*args, **kwargs)
            attrs = describe(bound.arguments, out)
        self.spans.append(Span(
            span_id, name, t0, t1, parent, self.phase,
            ru1.ru_minflt - ru0.ru_minflt, ru1.ru_stime - ru0.ru_stime, attrs,
        ))
        self.bookkeeping_s[self.phase] += (t0 - b0) + (time.perf_counter() - t1)
        return out

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every TRACED function wherever a softprop module binds it."""
        for mod_name in sorted({m for m, _, _ in TRACED}):
            importlib.import_module(f"softprop.{mod_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "softprop" or n.startswith("softprop.")]
        for mod_name, fn_name, describe in TRACED:
            original = getattr(sys.modules[f"softprop.{mod_name}"], fn_name)
            wrapper = self._wrapper(f"{mod_name}.{fn_name}", original, describe)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._patched.append((module, fn_name, original))
        return self

    def _wrapper(self, name, original, describe):
        bind = inspect.signature(original).bind if describe else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.record(name, original, args, kwargs, describe, bind)

        return traced

    def uninstall(self):
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write every span as JSON lines, times relative to the first span."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as out:
            for s in sorted(self.spans, key=lambda s: s.start):
                row = asdict(s)
                row["start"] -= origin
                row["end"] -= origin
                out.write(json.dumps(row, sort_keys=True) + "\n")
