"""Layer spans for the traced benchmark run, recorded from outside the program.

Each `qwalk` module is one layer. While a `Tracer` is installed, every public
function and public method defined in a layer's own file is replaced by a
wrapper that records a span around the call. The wrapper is patched wherever a
module looks the name up (module globals of every `qwalk` module and the class
attribute for methods), so calls through module globals are counted too:
recursive `krylov_expm_multiply` halvings and the `single_excitation_populations`
calls inside calibration cost loops, for example.

A layer's self time is the time its spans cover minus the time their child
spans cover, so the self times of all layers add up to the root span, the
`qwalk.cli.main` call. Spans are aggregated in memory as they close; nothing
is written while an operation runs.
"""
from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = (
    "cli",
    "device",
    "scenarios",
    "sector",
    "hamiltonian",
    "evolution",
    "measurement",
    "analysis",
    "calibration",
    "records",
    "svg",
)


def _file_size(path) -> int:
    return Path(path).stat().st_size


# Hooks see the call and its result and add layer counts. A `before` hook runs
# when the span opens and returns a token handed to the `after` hook.


def _after_build(tracer, token, args, kwargs, result):
    tracer.counts["hamiltonian.builds"] += 1
    tracer.counts["hamiltonian.nnz_total"] += result.nnz


def _before_evolve(tracer, args, kwargs):
    return tracer.counts["evolution.krylov_calls"]


def _after_evolve(tracer, token, args, kwargs, result):
    tracer.counts["evolution.propagations"] += 1
    if tracer.counts["evolution.krylov_calls"] == token:
        tracer.counts["evolution.dense_propagations"] += 1


def _before_krylov(tracer, args, kwargs):
    # A call made from inside another Krylov span is a step halving; a call
    # made from anywhere else propagates one sample interval.
    parent = tracer._stack[-2][0] if len(tracer._stack) > 1 else None
    if parent != "evolution.krylov_expm_multiply":
        tracer.counts["evolution.krylov_intervals"] += 1


def _after_krylov(tracer, token, args, kwargs, result):
    tracer.counts["evolution.krylov_calls"] += 1


def _after_sample_shots(tracer, token, args, kwargs, result):
    tracer.counts["measurement.shots"] += result.n_shots


def _after_post_select(tracer, token, args, kwargs, result):
    drawn = args[0] if args else kwargs["counts"]
    tracer.counts["measurement.drawn"] += drawn.n_shots
    tracer.counts["measurement.kept"] += result[0].n_shots


def _after_front_fit(tracer, token, args, kwargs, result):
    tracer.counts["analysis.front_fits"] += 1


def _after_nelder_mead(tracer, token, args, kwargs, result):
    tracer.counts["calibration.starts"] += 1
    tracer.counts["calibration.cost_evals"] += result.n_evaluations
    tracer.starts.append((result.fun, result.n_evaluations))


def _after_writer_close(tracer, token, args, kwargs, result):
    tracer.counts["records.bytes"] += _file_size(args[0].path)


def _after_csv(tracer, token, args, kwargs, result):
    tracer.counts["records.bytes"] += _file_size(args[0] if args else kwargs["path"])


def _after_manifest_finish(tracer, token, args, kwargs, result):
    tracer.counts["records.bytes"] += _file_size(Path(args[0].out_dir) / "manifest.json")


HOOKS = {
    "hamiltonian.build_hamiltonian": (None, _after_build),
    "evolution.evolve_unitary": (_before_evolve, _after_evolve),
    "evolution.krylov_expm_multiply": (_before_krylov, _after_krylov),
    "measurement.sample_shots": (None, _after_sample_shots),
    "measurement.post_select": (None, _after_post_select),
    "analysis.fit_gaussian_front": (None, _after_front_fit),
    "calibration.nelder_mead": (None, _after_nelder_mead),
    "records.RecordWriter.close": (None, _after_writer_close),
    "records.write_csv_matrix": (None, _after_csv),
    "records.RunManifest.finish": (None, _after_manifest_finish),
}


# Left unwrapped: a dict lookup called about 130,000 times per calibrate
# operation, where a span would cost more than the call and inflate the
# tracing overhead. Its time counts towards the calling layer.
UNTRACED = frozenset({"device.DisorderMap.get"})


def _public_callables(module):
    """(qualified name, owner, attribute name, raw attribute) for every public
    function and public method defined in the module's own file, except
    those in UNTRACED."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") or f"{layer}.{name}.{attr}" in UNTRACED:
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield f"{layer}.{name}.{attr}", obj, attr, raw


class Tracer:
    """Aggregates layer spans and counts over the operations run while installed."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"qwalk.{layer}") for layer in LAYERS}
        self.namespaces = [importlib.import_module("qwalk"), *self.modules.values()]
        self.self_s = defaultdict(float)  # qualified name -> self seconds
        self.calls = Counter()  # qualified name -> calls
        self.counts = Counter()
        self.starts = []  # (best cost, evaluations) per Nelder-Mead start of the current op
        self.useful_evals = 0
        self._stack = []  # [qualified name, seconds covered by child spans]
        self._patches = []

    def _wrap(self, key, fn):
        before, after = HOOKS.get(key, (None, None))
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def span(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            token = before(self, args, kwargs) if before else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[key] += elapsed - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after:
                after(self, token, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", key)
        return span

    def install(self) -> None:
        for module in self.modules.values():
            for key, owner, attr, raw in list(_public_callables(module)):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(key, raw.__func__))
                    self._patch(owner, attr, raw, wrapped)
                elif inspect.isclass(owner):
                    self._patch(owner, attr, raw, self._wrap(key, raw))
                else:
                    wrapper = self._wrap(key, raw)
                    for namespace in self.namespaces:
                        for name, value in list(vars(namespace).items()):
                            if value is raw:
                                self._patch(namespace, name, raw, wrapper)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def end_op(self) -> None:
        """Close the bookkeeping of one operation: credit the evaluations of
        the winning Nelder-Mead start (the first with the lowest cost)."""
        if self.starts:
            best = min(range(len(self.starts)), key=lambda i: self.starts[i][0])
            self.useful_evals += self.starts[best][1]
        self.starts = []

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, seconds in self.self_s.items():
            out[key.split(".", 1)[0]] += seconds
        return out

    def layer_calls(self) -> dict:
        out = dict.fromkeys(LAYERS, 0)
        for key, n in self.calls.items():
            out[key.split(".", 1)[0]] += n
        return out
