"""Seeded inputs, reference values and output checks for the four workloads.

The program sees only what is generated here: scenario text, argv lists, or
beam profiles and a grid.  Every operation carries the rows it must produce
and, for each row, a reference value computed in this file from the closed
forms, independently of the package.  References are computed after each call,
outside the timing, and not kept: holding them would grow the heap that the
program's garbage collections traverse.

Operations come in groups of fixed composition.  The seed changes angles,
geometries, beams, some states and the order, not what a group is made of,
so runs with different seeds measure about the same load.  The timed loop
stops only at a group boundary.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

TOLERANCE = 1e-9
CSV_HEADER = "param,value,closed_form,abs_error"

#: (param, value) rows: param is degrees (float) or an observable name (str).
Rows = list[tuple[object, float]]


@dataclass
class Op:
    kind: str
    payload: object
    rows: int  # result rows counted by rows_per_s
    cells: int  # sampled angle settings or screen positions counted by cells_per_s
    reference: Callable[[], Rows]  # the expected rows


@dataclass
class Workload:
    name: str
    ops: list[Op]
    group: int  # ops per group
    trace_groups: int  # groups in each pass of a traced run
    #: Percentile reported as latency_tail_ms: the highest that keeps at least
    #: ten samples beyond it at this workload's usual sample count.  Fixed per
    #: workload, so that runs with more or fewer samples report the same one.
    tail_percentile: float

    @property
    def min_samples(self) -> int:
        """Fewest samples that leave ten beyond the tail percentile."""
        return math.ceil(11 / (1.0 - self.tail_percentile / 100.0))


# --- closed forms (angles in degrees, converted exactly as the program does) ---

CHSH_DEFAULTS_DEG = {"a": 0.0, "ap": 45.0, "b": 22.5, "bp": 67.5}
SINE_LAW = ("circular_pair", "psi_e", "psi_u")


def _correlation(state: str, t1: float, t2: float) -> float:
    return (-1.0 if state in SINE_LAW else 1.0) * math.cos(2.0 * (t1 - t2))


def closed_form(experiment: str, state: str, deg: dict[str, float], geometry=None) -> float:
    t = {name: math.radians(value) for name, value in deg.items()}
    if experiment == "fig1":
        return 0.25 * math.sin(t["theta1"] - t["theta2"]) ** 2
    if experiment == "pdc":
        return (0.5 if state == "psi_e" else 0.25) * math.sin(t["theta1"] - t["theta2"]) ** 2
    if experiment == "fig2":
        return 0.0 if state == "psi_e" else math.cos(t["theta3"] - t["theta4"]) ** 2 / 16.0
    if experiment == "cascade":
        g11, _, _, g22 = geometry
        return 0.5 * abs(g11 * g22) ** 2 * math.cos(t["theta1"] - t["theta2"]) ** 2
    if experiment == "chsh":
        a, ap, b, bp = (t.get(name, math.radians(CHSH_DEFAULTS_DEG[name])) for name in ("a", "ap", "b", "bp"))
        corr = lambda x, y: _correlation(state, x, y)  # noqa: E731
        return abs(corr(a, b) - corr(a, bp) + corr(ap, b) + corr(ap, bp))
    raise ValueError(f"no closed form for {experiment}")


SAME_CHANNEL = {
    "circular_pair": (0.25, 0.25, 0.5),
    "psi_u": (0.25, 0.25, 0.5),
    "psi_e": (0.0, 0.0, 1.0),
}

#: The selfcheck table, in its printed order, with the expected values.
SELFCHECK = (
    ("fig1_sin2_max_abs_err", 0.0),
    ("fig1_conditional_max_dev", 0.0),
    ("pdc_shape_max_dev", 0.0),
    ("pdc_peak_psi_e", 0.5),
    ("pdc_peak_psi_u", 0.25),
    ("cascade_cos2_max_abs_err", 0.0),
    ("fig2_psi_u_max_abs_err", 0.0),
    ("fig2_psi_e_max_rate", 0.0),
    ("fig3_visibility_psi_u", 1.0),
    ("fig3_visibility_psi_e", 0.0),
    ("overlap_entangled_component", math.sqrt(0.5)),
    ("overlap_imaginary_part", 0.0),
    ("remainder_norm2", 0.5),
    ("factorization_max_amp_diff", 0.0),
    ("factor_commutator_abs", 0.0),
    ("chsh_abs_circular_pair", 2.0 * math.sqrt(2.0)),
    ("chsh_abs_psi_e", 2.0 * math.sqrt(2.0)),
    ("chsh_abs_psi_u", 2.0 * math.sqrt(2.0)),
    ("chsh_psi_e_minus_psi_u", 0.0),
    ("same_channel_psi_u_ch1", 0.25),
    ("same_channel_psi_u_ch2", 0.25),
    ("same_channel_psi_e_ch1", 0.0),
    ("same_channel_psi_e_ch2", 0.0),
    ("circular_outcome_total", 1.0),
)


def fig3_reference(state: str, beams, xs, ys) -> float:
    """Visibility of the overlapped-beam map, from the analytic intensities:
    |A1 + A2|^2 for psi_u (one combination mode reaches the screen through
    both beams) and (|A1|^2 + |A2|^2) / 2 for psi_e (no interference)."""
    import numpy as np

    x, y = np.meshgrid(np.asarray(xs), np.asarray(ys))
    amps = []
    for beam in beams:
        envelope = beam.amplitude * np.ones_like(x)
        if beam.kind == "gaussian":
            envelope = envelope * np.exp(-(x * x + y * y) / (2.0 * beam.width * beam.width))
        amps.append(envelope * np.exp(1j * (beam.tilt * x + beam.phase_offset)))
    if state == "psi_u":
        intensity = np.abs(amps[0] + amps[1]) ** 2
    else:
        intensity = (np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2) / 2.0
    top, bottom = float(intensity.max()), float(intensity.min())
    return (top - bottom) / (top + bottom)


def check_rows(actual: Rows, expected: Rows, shift: float = 0.0) -> bool:
    """True when every row is present, in order, finite and within TOLERANCE
    of its reference value (plus ``shift``, a hook to prove the gate works)."""
    if len(actual) != len(expected):
        return False
    for (param, value), (want_param, want) in zip(actual, expected):
        if isinstance(want_param, str):
            if param != want_param:
                return False
        elif not isinstance(param, float) or abs(param - want_param) > 1e-9 * max(1.0, abs(want_param)):
            return False
        if not math.isfinite(value) or abs(value - (want + shift)) > TOLERANCE:
            return False
    return True


def parse_csv(text: str, expected: Rows) -> Rows:
    """Rows of a CLI table; raises ValueError on a malformed table."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("bad CSV header or line ending")
    rows = []
    for line, (want_param, _) in zip(lines[1:-1], expected):
        param, value, _, _ = line.split(",")
        rows.append((param if isinstance(want_param, str) else float(param), float(value)))
    if len(lines) - 2 != len(expected):
        raise ValueError(f"expected {len(expected)} rows, got {len(lines) - 2}")
    return rows


# --- generators -----------------------------------------------------------------


def _angle(rng: random.Random, lo: float = 0.0, hi: float = 180.0) -> float:
    return round(rng.uniform(lo, hi), 3)


def _geometry(rng: random.Random) -> tuple[complex, ...]:
    # Positive real parts keep every token from looking like a CLI flag.
    return tuple(complex(round(rng.uniform(0.2, 1.2), 3), round(rng.uniform(-1.0, 1.0), 3)) for _ in range(4))


def _fmt_complex(g: complex) -> str:
    return f"{g.real!r}{'+' if g.imag >= 0 else '-'}{abs(g.imag)!r}i"


def _scan_reference(experiment, state, fixed, scan_name, start, step, points, geometry) -> Callable[[], Rows]:
    def make() -> Rows:
        rows = []
        for k in range(points):
            deg = start + k * step
            rows.append((deg, closed_form(experiment, state, {**fixed, scan_name: deg}, geometry)))
        return rows

    return make


def _point_reference(experiment, state, deg, geometry=None, name="coincidence_rate") -> Callable[[], Rows]:
    return lambda: [(name, closed_form(experiment, state, deg, geometry))]


#: scan_sweep kinds: experiment, state, fixed angles, scanned angle, points,
#: step in degrees; each scan covers 180 degrees.  On the seed code their
#: costs are spaced about 1.3x apart, so the median is always a fig1 scan
#: and the p90 tail a chsh scan, rather than whichever of two close kinds a
#: busy machine slows more.
SCANS = (
    ("pdc", "psi_e", ("theta1",), "theta2", 721, 0.25),
    ("cascade", "psi_u_prime", ("theta1",), "theta2", 601, 0.3),
    ("fig1", "circular_pair", ("theta1",), "theta2", 721, 0.25),
    ("fig2", "psi_u", ("theta3",), "theta4", 721, 0.25),
    ("chsh", "psi_u", ("a", "ap", "bp"), "b", 73, 2.5),
)


def scan_sweep(rng: random.Random, groups: int, tiny: bool) -> Workload:
    ops = []
    for _ in range(groups):
        group = []
        for experiment, state, fixed_names, scan_name, points, step in SCANS:
            if tiny:
                points = 3
            fixed = {name: _angle(rng) for name in fixed_names}
            start = _angle(rng, 0.0, 90.0)
            stop = start + (points - 1) * step
            geometry = _geometry(rng) if experiment == "cascade" else None
            lines = [f"experiment {experiment}", f"state {state}"]
            lines += [f"angle {name} {value!r}" for name, value in fixed.items()]
            lines.append(f"scan {scan_name} {start!r} {stop!r} {step!r}")
            if geometry:
                lines.append("geometry " + " ".join(_fmt_complex(g) for g in geometry))
            reference = _scan_reference(experiment, state, fixed, scan_name, start, step, points, geometry)
            group.append(Op(experiment, "\n".join(lines) + "\n", points, points, reference))
        rng.shuffle(group)
        ops += group
    return Workload("scan_sweep", ops, len(SCANS), 3, 90.0)


def screen_map(rng: random.Random, groups: int, tiny: bool) -> Workload:
    from biphoton.detection import BeamProfile, ScanGrid

    side = 5 if tiny else 51
    axis = tuple(-1.0 + 2.0 * i / (side - 1) for i in range(side))
    grid = ScanGrid(xs=axis, ys=axis)

    def beam(sign: float) -> BeamProfile:
        return BeamProfile(
            kind="gaussian",
            tilt=sign * rng.uniform(4.0, 12.0),
            width=rng.uniform(0.4, 1.2),
            phase_offset=rng.uniform(0.0, 2.0 * math.pi),
            amplitude=rng.uniform(0.5, 1.5),
        )

    ops = []
    # Two of one state and one of the other: the median then lies inside
    # one state's latencies whichever state is faster.
    for _ in range(groups):
        group = []
        for state in ("psi_u", "psi_e", "psi_e"):
            beams = (beam(1.0), beam(-1.0))
            reference = (lambda s=state, b=beams: [("visibility", fig3_reference(s, b, axis, axis))])
            group.append(Op(state, (state, beams, grid), side, side * side, reference))
        rng.shuffle(group)
        ops += group
    return Workload("screen_map", ops, 3, 6, 90.0)


def _cli_request(rng: random.Random, category: str, tiny: bool) -> Op:
    """One short CLI request of the given category, as argv for ``biphoton``."""

    def point(experiment, state, names, geometry=None):
        deg = {name: _angle(rng) for name in names}
        argv = ["scan", "--experiment", experiment, "--state", state]
        for name, value in deg.items():
            argv += ["--angle", name, repr(value)]
        if geometry:
            argv += ["--geometry", *(_fmt_complex(g) for g in geometry)]
        return Op(category, argv, 1, 1, _point_reference(experiment, state, deg, geometry))

    def short_scan(experiment, state, fixed_name, scan_name, geometry=None):
        points = 3 if tiny else 11
        step = rng.choice((1.0, 2.5, 5.0, 7.5))
        start = _angle(rng, 0.0, 90.0)
        fixed = {fixed_name: _angle(rng)}
        argv = ["scan", "--experiment", experiment, "--state", state, "--angle", fixed_name, repr(fixed[fixed_name])]
        argv += ["--scan", scan_name, repr(start), repr(start + (points - 1) * step), repr(step)]
        if geometry:
            argv += ["--geometry", *(_fmt_complex(g) for g in geometry)]
        reference = _scan_reference(experiment, state, fixed, scan_name, start, step, points, geometry)
        return Op(category, argv, points, points, reference)

    def chsh(state, angles: bool):
        argv = ["chsh", "--state", state]
        deg = {}
        if angles:
            deg = {name: _angle(rng) for name in ("a", "ap", "b", "bp")}
            for name, value in deg.items():
                argv += [f"--{name}", repr(value)]
        return Op(category, argv, 1, 1, _point_reference("chsh", state, deg, name="abs_S"))

    if category == "fig1":
        return point("fig1", "circular_pair", ("theta1", "theta2"))
    if category in ("pdc_psi_e", "pdc_psi_u"):
        return point("pdc", category[4:], ("theta1", "theta2"))
    if category in ("fig2_psi_e", "fig2_psi_u"):
        return point("fig2", category[5:], ("theta3", "theta4"))
    if category == "cascade":
        return point("cascade", "psi_u_prime", ("theta1", "theta2"), _geometry(rng))
    if category == "chsh_default":
        return chsh(rng.choice(("circular_pair", "psi_e", "psi_u", "psi_u_prime")), angles=False)
    if category.startswith("chsh_"):
        return chsh(category[5:], angles=True)
    if category == "same_channel":
        state = rng.choice(tuple(SAME_CHANNEL))
        names = ("both_ch1", "both_ch2", "split")
        reference = lambda: list(zip(names, SAME_CHANNEL[state]))  # noqa: E731
        return Op(category, ["scan", "--experiment", "same-channel", "--state", state], 3, 3, reference)
    if category in ("fig3_psi_u", "fig3_psi_e"):
        state = category[5:]
        value = 1.0 if state == "psi_u" else 0.0
        return Op(category, ["scan", "--experiment", "fig3", "--state", state], 1, 101, lambda: [("visibility", value)])
    if category == "scan_fig1":
        return short_scan("fig1", "circular_pair", "theta1", "theta2")
    if category == "scan_pdc":
        return short_scan("pdc", rng.choice(("psi_e", "psi_u")), "theta1", "theta2")
    if category == "scan_fig2":
        return short_scan("fig2", rng.choice(("psi_e", "psi_u")), "theta3", "theta4")
    if category == "scan_cascade":
        return short_scan("cascade", "psi_u_prime", "theta1", "theta2", _geometry(rng))
    raise ValueError(category)


#: Requests that print one row each.
SINGLE_POINTS = (
    "fig1", "pdc_psi_e", "pdc_psi_u", "fig2_psi_e", "fig2_psi_u", "cascade",
    "chsh_circular_pair", "chsh_psi_e", "chsh_psi_u", "chsh_psi_u_prime", "chsh_default",
)
#: One point_mix group: single points of every experiment and state, chsh at
#: random and default angles, same-channel, the default fig3 line, short scans.
CLI_CATEGORIES = SINGLE_POINTS + (
    "same_channel", "fig3_psi_u", "fig3_psi_e", "scan_fig1", "scan_pdc", "scan_fig2", "scan_cascade",
)


def point_mix(rng: random.Random, groups: int, tiny: bool) -> Workload:
    ops = []
    for _ in range(groups):
        group = [_cli_request(rng, category, tiny) for category in CLI_CATEGORIES]
        rng.shuffle(group)
        ops += group
    return Workload("point_mix", ops, len(CLI_CATEGORIES), 30, 99.0)


def selfcheck_op() -> Op:
    return Op("selfcheck", ["selfcheck"], len(SELFCHECK), len(SELFCHECK), lambda: list(SELFCHECK))


def cli_cold(rng: random.Random, groups: int, tiny: bool) -> Workload:
    ops = []
    # Two processes in five run selfcheck, so the p75 tail lies inside the
    # selfcheck latencies and the median outside them.  The others are single
    # points, so every group prints the same number of rows.
    for _ in range(groups):
        group = [_cli_request(rng, rng.choice(SINGLE_POINTS), tiny) for _ in range(3)]
        group += [selfcheck_op(), selfcheck_op()]
        rng.shuffle(group)
        ops += group
    return Workload("cli_cold", ops, 5, 4, 75.0)


BUILDERS = {"scan_sweep": scan_sweep, "screen_map": screen_map, "point_mix": point_mix, "cli_cold": cli_cold}

#: Groups generated per workload, about a run's worth on the seed code; the
#: timed loop cycles through them.
GROUPS = {"scan_sweep": 40, "screen_map": 80, "point_mix": 100, "cli_cold": 24}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, 2 if tiny else GROUPS[name], tiny)
