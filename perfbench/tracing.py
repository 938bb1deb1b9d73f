"""Spans around phasedec's public functions, installed from outside the package.

``Tracer.install`` wraps every public function of each layer module, in
every phasedec namespace that holds it (``scenarios.wigner_of_kernel`` is
the same function as ``weyl.wigner_of_kernel``), plus
``PhaseFunction.__post_init__`` and the sampling callables that the
``kernels`` factories return. Each call records a span: name, start, end,
parent span and op id. Spans stay in memory until ``write``.

The module imports only the standard library, so the launcher can read
``PER_LAYER`` without loading numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = (
    "cli",
    "scenarios",
    "phase_space",
    "moyal",
    "weyl",
    "spectral",
    "states",
    "kernels",
    "decoherence",
)

PHASE_FUNCTION = "phase_space.PhaseFunction"
KERNEL_SAMPLE = "kernels.sample"


def _bytes_written(args, result):
    out = Path(args["config"].output_dir)
    return {"bytes_written": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}


# counts computed from argument and result sizes, keyed by span name
COUNTERS = {
    "weyl.wigner_of_kernel": lambda args, result: {"out_points": args["out_grid"].n_points},
    "moyal.star_product": lambda args, result: {"grid_points": args["f"].grid.n_points},
    "states.make_state": lambda args, result: {"kernel_entries": args["grid"].n_points ** 2},
    "spectral.make_observable": lambda args, result: {"kernel_entries": args["grid"].n_points ** 2},
    "decoherence.residual_trajectory": lambda args, result: {
        "phase_entries": result.times.size * (2 * args["rho"].grid.omega_count - 1)
    },
    "cli.run_scenario": _bytes_written,
    KERNEL_SAMPLE: lambda args, result: {"entries": result.size},
}

# (metric name, unit); every value is per traced cycle of the workload
PER_LAYER = (
    ("weyl.wigner_of_kernel.calls", "count"),
    ("weyl.wigner_of_kernel.self_s", "s"),
    ("weyl.wigner_of_kernel.out_points", "count"),
    ("weyl.wigner_of_kernel.ns_per_out_point", "ns"),
    ("weyl.wigner_of_pure_state.self_s", "s"),
    ("weyl.trace_pair.self_s", "s"),
    ("moyal.star_product.calls", "count"),
    ("moyal.star_product.self_s", "s"),
    ("moyal.star_product.grid_points", "count"),
    ("moyal.moyal_bracket.calls", "count"),
    ("moyal.moyal_bracket.self_s", "s"),
    ("moyal.moyal_bracket.star_products_per_call", "ratio"),
    ("moyal.classical_limit_check.self_s", "s"),
    ("phase_space.partial_derivative.calls", "count"),
    ("phase_space.partial_derivative.self_s", "s"),
    ("phase_space.PhaseFunction.constructions", "count"),
    ("phase_space.PhaseFunction.self_s", "s"),
    ("phase_space.PhaseFunction.constructions_per_star_product", "ratio"),
    ("phase_space.integrate.self_s", "s"),
    ("states.make_state.self_s", "s"),
    ("states.make_state.kernel_entries", "count"),
    ("spectral.make_observable.self_s", "s"),
    ("spectral.make_observable.kernel_entries", "count"),
    ("kernels.sample.calls", "count"),
    ("kernels.sample.self_s", "s"),
    ("kernels.sample.entries", "count"),
    ("decoherence.evolve_pairing.calls", "count"),
    ("decoherence.evolve_pairing.self_s", "s"),
    ("decoherence.limit_pairing.self_s", "s"),
    ("decoherence.residual_trajectory.calls", "count"),
    ("decoherence.residual_trajectory.self_s", "s"),
    ("decoherence.residual_trajectory.phase_entries", "count"),
    ("decoherence.residual_trajectory.ns_per_phase_entry", "ns"),
    ("decoherence.fit_decay.self_s", "s"),
    ("spectral.synthesize_kernel.self_s", "s"),
    ("spectral.synthesize_wavefunction.self_s", "s"),
    ("spectral.symb_singular.self_s", "s"),
    ("states.pure_state.self_s", "s"),
    ("states.random_admissible_state.self_s", "s"),
    ("states.pair.self_s", "s"),
    ("decoherence.verify_final_positivity.self_s", "s"),
    ("scenarios.run_named_scenario.self_s", "s"),
    ("cli.run_scenario.self_s", "s"),
    ("cli.run_scenario.bytes_written", "B"),
    ("trace.cycle_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter and name != KERNEL_SAMPLE else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments if signature else None
                for key, value in counter(bound, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def _wrap_factory(self, name: str, factory):
        def sampled(*args, **kwargs):
            return self.wrap(KERNEL_SAMPLE, factory(*args, **kwargs))

        return self.wrap(name, functools.wraps(factory)(sampled))

    def install(self):
        """Replace the public functions of every layer in every phasedec namespace."""
        package = importlib.import_module("phasedec")
        modules = {layer: importlib.import_module(f"phasedec.{layer}") for layer in LAYERS}
        replacements = {}
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrap = self._wrap_factory if layer == "kernels" else self.wrap
                replacements[fn] = wrap(name, fn)
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(namespace, attr, replacements[value])
        phase_function = modules["phase_space"].PhaseFunction
        phase_function.__post_init__ = self.wrap(PHASE_FUNCTION, phase_function.__post_init__)

    def layer_metrics(self, n_cycles: int, op_walls: dict[int, float], untraced_wall_s: float,
                      traced_wall_s: float) -> dict[str, float]:
        """Per-cycle stats of the recorded spans, named as in ``PER_LAYER``.

        ``op_walls`` maps each traced op id to its measured wall time; the
        two wall times are mean cycle times without and with tracing.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        inside_star = [False] * len(spans)
        calls, self_time = defaultdict(int), defaultdict(float)
        covered = 0.0
        star_in_bracket = 0
        constructions_in_star = 0
        for index, (name, start, end, parent, op_id) in enumerate(spans):
            if op_id not in op_walls:
                continue  # outside the traced ops, e.g. inside a check
            calls[name] += 1
            if parent < 0:
                covered += end - start
            else:
                child_time[parent] += end - start
                parent_name = spans[parent][0]
                inside_star[index] = inside_star[parent] or parent_name == "moyal.star_product"
                if name == "moyal.star_product" and parent_name == "moyal.moyal_bracket":
                    star_in_bracket += 1
            if name == PHASE_FUNCTION and inside_star[index]:
                constructions_in_star += 1
        # children close before their parent, so child_time is complete here
        for index, (name, start, end, _, op_id) in enumerate(spans):
            if op_id in op_walls:
                self_time[name] += end - start - child_time[index]

        def ratio(a, b):
            return a / b if b else 0.0

        derived = {
            "moyal.moyal_bracket.star_products_per_call": ratio(
                star_in_bracket, calls["moyal.moyal_bracket"]
            ),
            "phase_space.PhaseFunction.constructions_per_star_product": ratio(
                constructions_in_star, calls["moyal.star_product"]
            ),
            "weyl.wigner_of_kernel.ns_per_out_point": 1e9 * ratio(
                self_time["weyl.wigner_of_kernel"], self.counts["weyl.wigner_of_kernel.out_points"]
            ),
            "decoherence.residual_trajectory.ns_per_phase_entry": 1e9 * ratio(
                self_time["decoherence.residual_trajectory"],
                self.counts["decoherence.residual_trajectory.phase_entries"],
            ),
            "trace.cycle_wall_s": traced_wall_s,
            "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
            "trace.uncovered_frac": 1.0 - ratio(covered, sum(op_walls.values())),
        }
        stats = {}
        for metric, _ in PER_LAYER:
            if metric in derived:
                stats[metric] = derived[metric]
                continue
            span_name, _, stat = metric.rpartition(".")
            if stat in ("calls", "constructions"):
                value = calls[span_name]
            elif stat == "self_s":
                value = self_time[span_name]
            else:
                value = self.counts[metric]
            stats[metric] = value / n_cycles
        return stats

    def write(self, path: Path):
        """Write the spans, one JSON array per line, and the computed counts."""
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
