"""Named end-to-end measurement scenarios.

Each scenario builds a source state and the detector operators seen through
its optical chain, evaluates the requested observable exactly, and reports
it next to its analytic closed form.  All angles are
radians; every rate is dimensionless with the overall source constant fixed
to 1.

Scenario catalog:

  fig1          two analyzers on the split single-beam circular pair;
                coincidence law sin^2(theta1 - theta2) / 4.
  pdc           two-channel pair source, entangled (psi_e) or un-entangled
                (psi_u); same normalized sin^2 law, constants 1/2 and 1/4.
  fig2          channel 2 split once more; coincidences between the two
                half-channels separate psi_u (cos^2 law / 16) from psi_e
                (identically zero).
  fig3          the two channels overlapped on one screen; fringe visibility
                separates psi_u (1) from psi_e (0); closed form from the
                first-order interference of the two beam envelopes.
  cascade       two-color cascade pair with frequency-selective detectors;
                cos^2 law with geometry coefficients.
  chsh          four-setting correlation sum built from any of the above
                coincidence laws.
  same-channel  probabilities of both photons leaving through one channel.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from . import detection as det
from . import optics as op
from .fock import (
    _SQRT1_2,
    EPS_ZERO,
    NAMED_STATE_KINDS,
    FockKet,
    LinearForm,
    ReplayKernel,
    apply_form,
    combination_forms,
    named_state,
    unit_form,
)
from .modes import BEAM_H, BEAM_V, H1, H2, V1, V2, W1H, W1V, W2H, W2V

#: Upper bound on the number of points in one angle scan.
MAX_SCAN_POINTS = 1_000_000

#: Arm-1 states a Source keeps, oldest dropped first (a chsh point has four).
ARM1_MEMO = 8


class DarkDenominator(ValueError):
    """Raised when a correlation coefficient is requested from four rates
    that are all (near) zero."""


@dataclass(frozen=True)
class ScenarioResult:
    """One evaluated observable with its analytic reference."""

    observable: str
    value: float
    closed_form: float

    def abs_error(self) -> float:
        return abs(self.value - self.closed_form)


@dataclass(frozen=True)
class CascadeGeometry:
    """Complex routing coefficients of the two-color source into the two
    channels; g[i][j] weights frequency j in channel i."""

    g11: complex = 1.0 + 0j
    g12: complex = 1.0 + 0j
    g21: complex = 1.0 + 0j
    g22: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        for name in ("g11", "g12", "g21", "g22"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"geometry coefficient {name} must be finite")


# --- field chains ------------------------------------------------------------


def fig1_channel_fields() -> tuple[op.ChannelField, op.ChannelField]:
    """Split the single beam on a balanced mirror, then apply the component
    phase-flip plate in channel 1 and the component-swap plate in channel 2."""
    source = op.ChannelField(unit_form(BEAM_V), unit_form(BEAM_H))
    ch1, ch2 = op.beamsplitter_5050(source, op.empty_field())
    return op.apply_jones(ch1, op.hwp(0.0)), op.apply_jones(ch2, op.hwp(math.pi / 4))


def pdc_channel_fields(kind: str) -> tuple[op.ChannelField, op.ChannelField]:
    """Detector-plane fields of the two-channel pair source.

    For psi_e each channel carries its own polarization modes at unit
    amplitude.  For psi_u the channels carry the two combination modes with
    splitter weight 1/sqrt2 and crossed roles.
    """
    if kind == "psi_e":
        return (
            op.ChannelField(unit_form(V1), unit_form(H1)),
            op.ChannelField(unit_form(V2), unit_form(H2)),
        )
    if kind == "psi_u":
        first, second = combination_forms()
        return (
            op.ChannelField(first.scale(_SQRT1_2), second.scale(-_SQRT1_2)),
            op.ChannelField(second.scale(_SQRT1_2), first.scale(_SQRT1_2)),
        )
    raise ValueError(f"no two-channel pair fields for state {kind!r}")


def cascade_channel_fields(geom: CascadeGeometry) -> tuple[op.ChannelField, op.ChannelField]:
    """Both frequencies reach both channels, weighted by the geometry."""
    w1_v, w1_h = unit_form(W1V), unit_form(W1H)
    w2_v, w2_h = unit_form(W2V), unit_form(W2H)
    ch1 = op.ChannelField(
        w1_v.scale(geom.g11).plus(w2_v.scale(geom.g12)),
        w1_h.scale(geom.g11).plus(w2_h.scale(geom.g12)),
    )
    ch2 = op.ChannelField(
        w1_v.scale(geom.g21).plus(w2_v.scale(geom.g22)),
        w1_h.scale(geom.g21).plus(w2_h.scale(geom.g22)),
    )
    return ch1, ch2


@dataclass(frozen=True, eq=False)
class Source:
    """A two-photon state seen through two analyzer arms.

    The coincidence rate at analyzer angles (t1, t2) is the normally ordered
    <L1^dag L2^dag L2 L1> of the two polarizer operators (Glauber's G2), with
    closed form peak * law(t1 - t2) ** 2, law being math.sin or math.cos.
    kernel is compiled on first use; arm1_states keeps arm-1 states by angle.
    """

    ket: FockKet
    arm1: op.ChannelField
    arm2: op.ChannelField
    peak: float
    law: Callable[[float], float]
    arm1_states: dict[float, dict[int, complex]] = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def kernel(self) -> ReplayKernel:
        """Form pair 0 is arm 1's polarizer (v, h), pair 1 arm 2's."""
        return ReplayKernel(self.ket, ((self.arm1.v, self.arm1.h), (self.arm2.v, self.arm2.h)))


def source(kind: str, geometry: CascadeGeometry = CascadeGeometry(), split: bool = False) -> Source:
    """Build a named state and both analyzer arms of its coincidence
    measurement once.  The kind picks the channel fields: fig1 for
    circular_pair, pdc for psi_e and psi_u, and the cascade for psi_u_prime,
    whose analyzers see only the first color in channel 1 and the second in
    channel 2; the geometry only enters the cascade.  split is fig2: channel
    2 is split once more and its two halves are analyzed (not the cascade).
    """
    ket = named_state(kind)
    if kind == "psi_u_prime" and not split:
        ch1, ch2 = cascade_channel_fields(geometry)
        arm1, arm2 = op.frequency_component(ch1, "w1"), op.frequency_component(ch2, "w2")
        return Source(ket, arm1, arm2, 0.5 * abs(geometry.g11 * geometry.g22) ** 2, math.cos)
    ch1, ch2 = fig1_channel_fields() if kind == "circular_pair" else pdc_channel_fields(kind)
    if split:
        ch3, ch4 = op.beamsplitter_5050(ch2, op.empty_field())
        return Source(ket, ch3, ch4, 0.0 if kind == "psi_e" else 0.0625, math.cos)
    return Source(ket, ch1, ch2, 0.5 if kind == "psi_e" else 0.25, math.sin)


def coincidence(src: Source, t1: float, t2: float) -> ScenarioResult:
    """Coincidence rate of the two analyzers at angles t1, t2: the value of
    det.coincidence_rate(src.ket, op.polarizer(src.arm1, t1),
    op.polarizer(src.arm2, t2)), bit for bit, raising where it raises."""
    kernel, memo = src.kernel, src.arm1_states
    # -0.0 and 0.0 share a key: they give one form, sin(+-0.0) terms being pruned.
    after1 = memo.get(t1)
    # Both forms before the first apply, so that errors come in the engine's order.
    form1 = kernel.form(0, math.cos(t1), math.sin(t1)) if after1 is None else None
    form2 = kernel.form(1, math.cos(t2), math.sin(t2))
    if after1 is None:
        after1 = kernel.apply(kernel.start, form1)
        if len(memo) >= ARM1_MEMO:
            del memo[next(iter(memo))]
        memo[t1] = after1
    return ScenarioResult(
        observable="coincidence_rate",
        value=kernel.norm2(kernel.apply(after1, form2)),
        closed_form=src.peak * src.law(t1 - t2) ** 2,
    )


# --- single-point scenarios -----------------------------------------------------


def fig1_conditional_check(src: Source, theta1: float) -> float:
    """Detection rate of the photon left behind by the first analyzer of the
    fig1 source (source("circular_pair")).

    The leftover state is kept unnormalized (detection probability folded
    in), so the bare analyzer operator sees it with rate one half for every
    angle.
    """
    leftover = apply_form(src.ket, op.polarizer(src.arm1, theta1))
    bare_analyzer = LinearForm({BEAM_V: math.cos(theta1), BEAM_H: -math.sin(theta1)})
    return det.singles_rate(leftover, bare_analyzer)


def _fig3_closed_form(kind: str, beams: Sequence[det.BeamProfile], grid: det.ScanGrid) -> float:
    """Visibility of the first-order interference of the two beam envelopes
    e and phases p: e1^2 + e2^2 + 2 e1 e2 cos(p1 - p2) for psi_u (one
    combination mode reaches the screen through both beams) and
    (e1^2 + e2^2) / 2 for psi_e (H1 and V2 add incoherently, occupation 1/2
    each)."""
    beam1, beam2 = beams

    def intensity(x: float, y: float) -> float:
        e1, e2 = beam1.envelope(x, y), beam2.envelope(x, y)
        if kind == "psi_e":
            return (e1 * e1 + e2 * e2) / 2.0
        delta = beam1.phase(x) - beam2.phase(x)
        # math.cos raises on inf; the engine's map is NaN there too.
        return e1 * e1 + e2 * e2 + 2.0 * e1 * e2 * (math.cos(delta) if math.isfinite(delta) else math.nan)

    return det.visibility(tuple(tuple(intensity(x, y) for x in grid.xs) for y in grid.ys))


def fig3_visibility(
    kind: str,
    beams: Sequence[det.BeamProfile] | None = None,
    grid: det.ScanGrid | None = None,
) -> ScenarioResult:
    """Fringe visibility of the two overlapped channels on one screen.

    Channel 1 is analyzed horizontally and rotated to vertical, channel 2 is
    analyzed vertically, so both beams hit the screen in the same
    polarization and only the state decides whether they interfere.
    """
    grid = grid or det.DEFAULT_GRID
    beams = tuple(beams) if beams is not None else det.default_beams()
    if kind == "psi_e":
        screen_forms = [unit_form(H1), unit_form(V2)]
    elif kind == "psi_u":
        _, second = combination_forms()
        screen_forms = [second, second]
    else:
        raise ValueError(f"no overlap scenario for state {kind!r}")
    fringe_map = det.intensity_map(named_state(kind), screen_forms, beams, grid)
    return ScenarioResult(
        observable="visibility",
        value=det.visibility(fringe_map),
        closed_form=_fig3_closed_form(kind, beams, grid),
    )


# --- channel statistics -----------------------------------------------------------


def _arm_pair_rate(ket: FockKet, a: op.ChannelField, b: op.ChannelField) -> float:
    """Coincidence rate of arms a and b summed over the (v, h) components of
    each; with a is b it counts both photons in one arm twice (ordered pairs)."""
    total = 0.0
    for first in (a.v, a.h):
        for second in (b.v, b.h):
            total += det.coincidence_rate(ket, first, second)
    return total


def same_channel_probability(src: Source, channel: int) -> float:
    """Probability that both photons of the pair leave through one channel:
    half the ordered double rate, the pair having two photons."""
    if channel not in (1, 2):
        raise ValueError("channel must be 1 or 2")
    arm = src.arm1 if channel == 1 else src.arm2
    return _arm_pair_rate(src.ket, arm, arm) / 2.0


def split_probability(src: Source) -> float:
    """Probability of one photon in each channel, summed over polarizations."""
    return _arm_pair_rate(src.ket, src.arm1, src.arm2)


#: Closed-form outcome probabilities (both in 1, both in 2, one in each) of
#: every state kind with a channel decomposition.
SAME_CHANNEL_CLOSED_FORMS = {
    "circular_pair": (0.25, 0.25, 0.5),
    "psi_e": (0.0, 0.0, 1.0),
    "psi_u": (0.25, 0.25, 0.5),
}


def same_channel_table(kind: str) -> list[ScenarioResult]:
    """Outcome probabilities {both in 1, both in 2, one in each}."""
    src = source(kind)
    values = (same_channel_probability(src, 1), same_channel_probability(src, 2), split_probability(src))
    names = ("both_ch1", "both_ch2", "split")
    return [
        ScenarioResult(observable=name, value=value, closed_form=closed)
        for name, value, closed in zip(names, values, SAME_CHANNEL_CLOSED_FORMS[kind])
    ]


# --- correlation coefficients -------------------------------------------------------


def correlation_E(src: Source, theta1: float, theta2: float) -> float:
    """Two-channel correlation coefficient estimated from four analyzer
    settings (each angle also rotated by pi/2)."""
    t1p = theta1 + math.pi / 2
    t2p = theta2 + math.pi / 2

    def rate(t1: float, t2: float) -> float:
        return coincidence(src, t1, t2).value

    same = rate(theta1, theta2) + rate(t1p, t2p)
    cross = rate(theta1, t2p) + rate(t1p, theta2)
    total = same + cross
    if total <= EPS_ZERO:
        raise DarkDenominator("all four coincidence rates vanish at these analyzer angles")
    return (same - cross) / total


def analytic_correlation_E(src: Source, theta1: float, theta2: float) -> float:
    """Closed form of correlation_E: -cos 2(t1-t2) for the sin^2-law sources,
    +cos 2(t1-t2) for the cos^2 law."""
    sign = 1.0 if src.law is math.cos else -1.0
    return sign * math.cos(2.0 * (theta1 - theta2))


def chsh_S(
    src: Source, a: float, ap: float, b: float, bp: float, E: Callable[[Source, float, float], float] = correlation_E
) -> float:
    """Four-setting correlation sum E(a,b) - E(a,b') + E(a',b) + E(a',b');
    E=analytic_correlation_E gives its closed form."""
    return E(src, a, b) - E(src, a, bp) + E(src, ap, b) + E(src, ap, bp)


# --- experiment registry and scans ------------------------------------------------------

#: One scan point: every angle of the experiment, in radians -> result rows.
Point = Callable[[Mapping[str, float]], list[ScenarioResult]]


@dataclass(frozen=True)
class Experiment:
    """Everything the scenario layer knows about one named experiment.

    prepare(state, geometry, beams) builds the scenario once and returns the
    function that evaluates one point of it.
    """

    angles: dict[str, float]  # parameter name -> default, in degrees
    states: tuple[str, ...]
    default_state: str
    prepare: Callable[[str, CascadeGeometry, Sequence[det.BeamProfile]], Point]


def _pair_experiment(names: tuple[str, str], states: tuple[str, ...], default: str, split: bool = False) -> Experiment:
    def prepare(state: str, geometry: CascadeGeometry, beams) -> Point:
        src = source(state, geometry, split)
        return lambda angles: [coincidence(src, angles[names[0]], angles[names[1]])]

    return Experiment(dict.fromkeys(names, 0.0), states, default, prepare)


def _prepare_chsh(state: str, geometry: CascadeGeometry, beams) -> Point:
    src = source(state)

    def point(angles: Mapping[str, float]) -> list[ScenarioResult]:
        settings = {name: angles[name] for name in CANONICAL_CHSH_ANGLES}
        return [
            ScenarioResult(
                observable="abs_S",
                value=abs(chsh_S(src, **settings)),
                closed_form=abs(chsh_S(src, **settings, E=analytic_correlation_E)),
            )
        ]

    return point


EXPERIMENTS: dict[str, Experiment] = {
    "fig1": _pair_experiment(("theta1", "theta2"), ("circular_pair",), "circular_pair"),
    "pdc": _pair_experiment(("theta1", "theta2"), ("psi_e", "psi_u"), "psi_u"),
    "fig2": _pair_experiment(("theta3", "theta4"), ("psi_e", "psi_u"), "psi_u", split=True),
    "fig3": Experiment(
        {}, ("psi_e", "psi_u"), "psi_u", lambda state, geometry, beams: lambda _: [fig3_visibility(state, beams)]
    ),
    "cascade": _pair_experiment(("theta1", "theta2"), ("psi_u_prime",), "psi_u_prime"),
    "chsh": Experiment(
        {"a": 0.0, "ap": 45.0, "b": 22.5, "bp": 67.5}, NAMED_STATE_KINDS, "circular_pair", _prepare_chsh
    ),
    "same-channel": Experiment(
        {}, tuple(SAME_CHANNEL_CLOSED_FORMS), "psi_u", lambda state, geometry, beams: lambda _: same_channel_table(state)
    ),
}

#: Analyzer settings that maximize the four-setting correlation sum.
CANONICAL_CHSH_ANGLES = {name: math.radians(deg) for name, deg in EXPERIMENTS["chsh"].angles.items()}


def scan_count(start: float, stop: float, step: float) -> int:
    """Number of points in the inclusive grid start, start + step, ..., stop,
    computed without building the grid; at most MAX_SCAN_POINTS."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("scan bounds and step must be finite")
    if step <= 0.0:
        raise ValueError("scan step must be > 0")
    if stop < start:
        raise ValueError("scan range is empty (to < from)")
    limit = stop + 1e-9 * step
    # Floor estimate of the last index, corrected against the inclusive test.
    last = int(min((stop - start) / step, MAX_SCAN_POINTS))
    while last > 0 and start + last * step > limit:
        last -= 1
    while last < MAX_SCAN_POINTS and start + (last + 1) * step <= limit:
        last += 1
    if last >= MAX_SCAN_POINTS:
        raise ValueError(f"scan has more than {MAX_SCAN_POINTS} points")
    return last + 1


def scan_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid start, start + step, ..., stop."""
    return [start + k * step for k in range(scan_count(start, stop, step))]
