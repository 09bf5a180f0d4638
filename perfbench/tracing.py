"""Per-layer counters, taken from outside the program.

``Tracer.install`` rebinds each traced public function, in every csglab
module whose namespace holds it, to a wrapper that counts calls and sums
their wall time; ``remove`` puts the originals back. Times are inclusive:
``analysis.compute_ratios.ms`` contains the time of every traced call made
inside it. A few wrappers also look at the result: the profiles returned by
``enumerate_profiles`` (counted per orbit by the benchmark itself), the
verdict of ``is_nash`` and the step count of ``run_dynamics``.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function, what is reported: call count, summed time, or both)
TRACED = (
    ("analysis", "enumerate_profiles", "calls ms"),
    ("analysis", "optimal_profile", "ms"),
    ("analysis", "all_nash", "ms"),
    ("analysis", "compute_ratios", "ms"),
    ("game", "agent_cost", "calls ms"),
    ("game", "potential", "calls ms"),
    ("game", "is_nash", "calls ms"),
    ("game", "make_instance", "ms"),
    ("dynamics", "best_response", "calls ms"),
    ("dynamics", "run_dynamics", "ms"),
    ("graphs", "classify", "calls ms"),
    ("graphs", "enumerate_st_paths", "calls ms"),
    # asymmetric games are certified without max-flow, so on asym-dag its
    # time would read exactly 0 in every run; only the count is reported
    ("flows", "max_flow", "calls"),
    ("io", "instance_from_document", "ms"),
    ("io", "report_to_document", "ms"),
    ("io", "trace_to_document", "ms"),
    ("io", "canonical_json", "ms"),
)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.profiles = 0  # feasible ordered profiles returned by enumerate_profiles
        self.orbits = 0  # distinct multisets among them
        self.nash_hits = 0
        self.steps = 0
        self._undo: list = []

    def reset(self) -> None:
        self.calls = {name: 0 for name in self._names()}
        self.seconds = {name: 0.0 for name in self._names()}
        self.profiles = self.orbits = self.nash_hits = self.steps = 0

    @staticmethod
    def _names():
        return [f"{module}.{function}" for module, function, _ in TRACED]

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "csglab" or name.startswith("csglab.")]
        for module_name, function, _ in TRACED:
            original = getattr(sys.modules[f"csglab.{module_name}"], function)
            wrapper = self._wrap(f"{module_name}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, name, function):
        look = {
            "analysis.enumerate_profiles": self._count_orbits,
            "game.is_nash": self._count_hit,
            "dynamics.run_dynamics": self._count_steps,
        }.get(name)

        def traced(*args, **kwargs):
            started = perf_counter()
            result = function(*args, **kwargs)
            self.seconds[name] += perf_counter() - started
            self.calls[name] += 1
            if look is not None:
                look(args, result)
            return result

        return traced

    def _count_orbits(self, args, profiles) -> None:
        terminals = [repr(t) for t in args[0].terminals]
        self.profiles += len(profiles)
        self.orbits += len({tuple(sorted(zip(terminals, p.paths))) for p in profiles})

    def _count_hit(self, args, verdict) -> None:
        self.nash_hits += bool(verdict)

    def _count_steps(self, args, trace) -> None:
        self.steps += trace.step_count

    def snapshot(self) -> dict:
        """Per-layer metrics of the calls since the last reset, by name."""
        out: dict = {}
        for module, function, reported in TRACED:
            name = f"{module}.{function}"
            if "calls" in reported:
                out[f"{name}.calls"] = (self.calls[name], "count")
            if "ms" in reported:
                out[f"{name}.ms"] = (self.seconds[name] * 1e3, "ms")
        out["analysis.profiles"] = (self.profiles, "count")
        out["analysis.profiles_per_orbit"] = (self.profiles / self.orbits if self.orbits else 0.0, "ratio")
        tests = self.calls["game.is_nash"]
        out["game.is_nash.hit_ratio"] = (self.nash_hits / tests if tests else 0.0, "ratio")
        out["dynamics.steps"] = (self.steps, "count")
        return out
