"""Per-layer tracer: wraps public biphoton functions from outside the package.

Each traced function is replaced by a wrapper in every ``biphoton.*`` module
that holds it, including modules that imported it by name (``apply_form`` in
``detection``, ``named_state`` in ``experiments``), so calls between layers
are caught as well as calls from the benchmark.  Open spans are kept on a
stack: a span's self time is its duration minus the time of the traced spans
it called.  Only counts and summed times are kept, so memory stays flat on
long runs.  Nothing is written into the package; ``uninstall`` restores every
patched attribute.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Functions traced, by defining module.  A name that a later version of the
#: package no longer defines is skipped, and its counters read 0.
TARGETS = {
    "biphoton.fock": ("apply_form", "named_state"),
    "biphoton.optics": ("polarizer", "beamsplitter_5050", "apply_jones", "frequency_component", "with_channel"),
    "biphoton.detection": ("coincidence_rate", "singles_rate", "intensity_map"),
    "biphoton.experiments": ("scenario_point", "fig1_channel_fields", "pdc_channel_fields", "cascade_channel_fields"),
    "biphoton.scenario": ("parse_scenario", "evaluate"),
    "biphoton.cli": ("main", "render_csv"),
    "biphoton.selfcheck": ("selfcheck_rows",),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # apply_form yield: output terms against input terms x form terms.
        self.terms_in = 0
        self.terms_out = 0
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter
        count_terms = name == "fock.apply_form"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children[0]
            if count_terms:
                self.terms_in += len(args[0]) * len(args[1])
                self.terms_out += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target in every loaded biphoton module."""
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "biphoton" or n.startswith("biphoton."))]
        for module_name, names in TARGETS.items():
            home = sys.modules.get(module_name)
            if home is None:
                continue
            short = module_name.rsplit(".", 1)[1]
            for attr in names:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "terms_in": self.terms_in,
            "terms_out": self.terms_out,
        }


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot into another (the CLI children each report one)."""
    for key in ("calls", "self_s"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    for key in ("terms_in", "terms_out"):
        total[key] = total.get(key, 0) + part.get(key, 0)
    return total


OPTICS = tuple(f"optics.{name}" for name in TARGETS["biphoton.optics"])
BUILDERS = ("fock.named_state",) + tuple(
    f"experiments.{name}" for name in TARGETS["biphoton.experiments"] if name.endswith("_channel_fields")
)


def layer_metrics(snap: dict, rows: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, (value, unit) by name, from a merged snapshot of a
    pass that produced ``rows`` result rows."""
    calls, self_s = snap.get("calls", {}), snap.get("self_s", {})
    n = lambda name: calls.get(name, 0)  # noqa: E731
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    terms_in = snap.get("terms_in", 0)
    optics_calls = sum(n(name) for name in OPTICS)
    return {
        "fock.apply_form.calls": (n("fock.apply_form"), "count"),
        "fock.apply_form.self_s": (s("fock.apply_form"), "s"),
        "fock.apply_form.yield": (snap.get("terms_out", 0) / terms_in if terms_in else 0.0, "ratio"),
        "fock.named_state.calls": (n("fock.named_state"), "count"),
        "fock.named_state.self_s": (s("fock.named_state"), "s"),
        "optics.calls": (optics_calls, "count"),
        "optics.self_s": (sum(s(name) for name in OPTICS), "s"),
        "optics.calls_per_row": (optics_calls / rows, "ratio"),
        "detection.coincidence_rate.calls": (n("detection.coincidence_rate"), "count"),
        "detection.coincidence_rate.self_s": (s("detection.coincidence_rate"), "s"),
        "detection.intensity_map.self_s": (s("detection.intensity_map"), "s"),
        "detection.singles_rate.calls": (n("detection.singles_rate"), "count"),
        "experiments.scenario_point.calls": (n("experiments.scenario_point"), "count"),
        "experiments.scenario_point.self_s": (s("experiments.scenario_point"), "s"),
        "experiments.builds_per_row": (sum(n(name) for name in BUILDERS) / rows, "ratio"),
        "scenario.parse_scenario.calls": (n("scenario.parse_scenario"), "count"),
        "scenario.parse_scenario.self_s": (s("scenario.parse_scenario"), "s"),
        "scenario.evaluate.self_s": (s("scenario.evaluate"), "s"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "cli.render_csv.self_s": (s("cli.render_csv"), "s"),
        "selfcheck.selfcheck_rows.self_s": (s("selfcheck.selfcheck_rows"), "s"),
    }
