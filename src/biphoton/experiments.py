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
import itertools
import math
import operator
import sys
from collections.abc import Callable, Iterable, Sequence
from typing import NamedTuple

from . import detection as det
from . import optics as op
from .fock import (
    _SQRT1_2,
    EPS_PRUNE,
    EPS_ZERO,
    NAMED_STATE_KINDS,
    FockKet,
    LinearForm,
    apply_form,
    combination_forms,
    inner,
    named_state,
    norm2,
    unit_form,
)
from .modes import BEAM_H, BEAM_V, H1, H2, V1, V2, W1H, W1V, W2H, W2V

#: Upper bound on the number of points in one angle scan.
MAX_SCAN_POINTS = 1_000_000


class ScenarioResult(NamedTuple):
    """One table row: an evaluated observable, its analytic reference and
    the largest abs error that still counts as agreement."""

    observable: str
    value: float
    closed_form: float
    tolerance: float = 1e-9

    def abs_error(self) -> float:
        return abs(self.value - self.closed_form)


class _Geometry(NamedTuple):
    g11: complex
    g12: complex
    g21: complex
    g22: complex


class CascadeGeometry(_Geometry):
    """Complex routing coefficients of the two-color source into the two
    channels; g[i][j] weights frequency j in channel i.  g12 and g21 route
    the other color into a channel whose filter drops it: they change no rate."""

    __slots__ = ()

    def __new__(
        cls, g11: complex = 1.0 + 0j, g12: complex = 1.0 + 0j, g21: complex = 1.0 + 0j, g22: complex = 1.0 + 0j
    ) -> CascadeGeometry:
        coefficients = (g11, g12, g21, g22)
        for name, value in zip(cls._fields, coefficients):
            if not cmath.isfinite(value):
                raise ValueError(f"geometry coefficient {name} must be finite")
        return tuple.__new__(cls, coefficients)


# --- field chains ------------------------------------------------------------


def fig1_channel_fields() -> tuple[op.ChannelField, op.ChannelField]:
    """The single beam (v, h) split on a balanced mirror whose other port is
    vacuum, behind channel 1's plate, which flips the sign of h, and channel
    2's, which swaps v and h: (v, -h)/sqrt2 and (h, v)/sqrt2."""
    return (
        op.ChannelField(LinearForm({BEAM_V: _SQRT1_2}), LinearForm({BEAM_H: -_SQRT1_2})),
        op.ChannelField(LinearForm({BEAM_H: _SQRT1_2}), LinearForm({BEAM_V: _SQRT1_2})),
    )


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
    """The cascade's channels behind their color filters: channel i carries
    g[i][1] w1 + g[i][2] w2, and its filter passes color i alone, so g12 and
    g21 reach no detector."""
    return (
        op.ChannelField(LinearForm({W1V: geom.g11}), LinearForm({W1H: geom.g11})),
        op.ChannelField(LinearForm({W2V: geom.g22}), LinearForm({W2H: geom.g22})),
    )


class Source:
    """A two-photon state seen through two analyzer arms.

    The coincidence rate at analyzer angles (t1, t2) is the normally ordered
    <L1^dag L2^dag L2 L1> of the two polarizer operators (Glauber's G2),
    read off the two-photon amplitude matrix K, with closed form
    peak * law(t1 - t2) ** 2, law being math.sin or math.cos.  Sources
    compare by identity.
    """

    def __init__(
        self, ket: FockKet, arm1: op.ChannelField, arm2: op.ChannelField, peak: float, law: Callable[[float], float]
    ) -> None:
        self.ket, self.arm1, self.arm2, self.peak, self.law = ket, arm1, arm2, peak, law

    @functools.cached_property
    def K(self) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        """Two-photon amplitude matrix K = _pair_matrix(ket, arm1, arm2).
        L2 L1 of a two-photon ket is a multiple of the vacuum, and a polarizer
        at t is cos(t) v + sin(t) h, so the coincidence amplitude is c1^T K c2
        with c = (cos t, sin t) (Rubin, Klyshko, Shih and Sergienko, PRA 50,
        5122 (1994))."""
        return _pair_matrix(self.ket, self.arm1, self.arm2)

    @functools.cached_property
    def same_channel(self) -> tuple[tuple[tuple[complex, ...], ...], ...]:
        """The pair matrices _pair_matrix(ket, arm, arm) of arm1 and of arm2."""
        return tuple(_pair_matrix(self.ket, arm, arm) for arm in (self.arm1, self.arm2))

    @functools.cached_property
    def T(self) -> tuple[float, float, float, float, float]:
        """(||K||_F^2, T_ZZ, T_ZX, T_XZ, T_XX): the polarization correlation
        matrix T_ij = Tr(s_i K s_j K^H), s over the Pauli matrices (Z, X), of
        K = ((a, b), (c, d)).  Analyzers at t and t + pi/2 form an orthonormal
        basis, so their four coincidence rates sum to ||K||_F^2 at any angles
        and their signed sum is d(t1)^T T d(t2), d(t) = (cos 2t, sin 2t) (the
        correlation-matrix criterion of R., P. and M. Horodecki, Phys. Lett.
        A 200, 340 (1995))."""
        (a, b), (c, d) = self.K
        aa, bb, cc, dd = (abs(k) ** 2 for k in (a, b, c, d))
        ca, cb = a.conjugate(), b.conjugate()
        return (
            aa + bb + cc + dd,
            aa - bb - cc + dd,
            2.0 * (ca * b - c.conjugate() * d).real,
            2.0 * (ca * c - cb * d).real,
            2.0 * (ca * d + cb * c).real,
        )


def _pair_matrix(ket: FockKet, a: op.ChannelField, b: op.ChannelField) -> tuple[tuple[complex, ...], ...]:
    """M[i][j] = <0| b[j] a[i] |ket>, i and j over the (v, h) components of
    the arms a and b; ValueError where a term of the ket is not two-photon.
    The (v, h) x (v, h) detector pairs of a and b count ||M||_F^2 in all, and
    analyzers on them |c1^T M c2|^2."""
    if any(len(occ) != 2 for occ, _ in ket.items()):
        raise ValueError("a pair matrix needs a ket whose every term has two photons")
    halves = [apply_form(ket, f) for f in (a.v, a.h)]  # one photon left
    return tuple(tuple(apply_form(half, g).amplitude(()) for g in (b.v, b.h)) for half in halves)


_DEFAULT_GEOMETRY = CascadeGeometry()


def source(kind: str, geometry: CascadeGeometry = _DEFAULT_GEOMETRY, split: bool = False) -> Source:
    """A named state and both analyzer arms of its coincidence measurement.
    The kind picks the channel fields: fig1 for circular_pair, pdc for psi_e
    and psi_u, and the cascade for psi_u_prime, whose analyzers see only the
    first color in channel 1 and the second in channel 2; the geometry only
    enters the cascade.  split is fig2: channel 2 is split once more and its
    two halves are analyzed (not the cascade).  Every source but a cascade
    at a geometry other than CascadeGeometry() is built once per process and
    shared."""
    if kind == "psi_u_prime" and not split and geometry != _DEFAULT_GEOMETRY:
        return _build_source(kind, geometry, split)
    return _shared_source(kind, bool(split))


@functools.cache
def _shared_source(kind: str, split: bool) -> Source:
    return _build_source(kind, _DEFAULT_GEOMETRY, split)


def _build_source(kind: str, geometry: CascadeGeometry, split: bool) -> Source:
    ket = named_state(kind)
    if kind == "psi_u_prime" and not split:
        arm1, arm2 = cascade_channel_fields(geometry)
        return Source(ket, arm1, arm2, 0.5 * abs(geometry.g11 * geometry.g22) ** 2, math.cos)
    ch1, ch2 = fig1_channel_fields() if kind == "circular_pair" else pdc_channel_fields(kind)
    if split:
        half = op.vacuum_split(ch2)  # both output ports carry it
        return Source(ket, half, half, 0.0 if kind == "psi_e" else 0.0625, math.cos)
    return Source(ket, ch1, ch2, 0.5 if kind == "psi_e" else 0.25, math.sin)


def coincidence(src: Source, t1: float, t2: float) -> ScenarioResult:
    """Coincidence rate of the two analyzers at angles t1, t2: |c1^T K c2|^2
    (Source.K), or 0 where that modulus is <= EPS_PRUNE, as the engine prunes
    it; to rounding the engine's <L1^dag L2^dag L2 L1> of the two polarizers.
    The closed form is peak * law(t1 - t2) ** 2 at any finite angles, and the
    tolerance 1e-9 of src.peak, but no less than EPS_PRUNE ** 2, below which
    the pruning shows.  This is coincidence_rows at one point."""
    return coincidence_rows(src, (t1,), (t2,))[0]


def coincidence_rows(src: Source, t1s: Sequence[float], t2s: Sequence[float]) -> list[ScenarioResult]:
    """coincidence at each (t1, t2) of the product of t1s and t2s, in product
    order, bit for bit.  The closed form takes law(t1 - t2) by angle addition
    from each angle's cos and sin.  OverflowError where a rate is too large
    for a float."""
    (kvv, kvh), (khv, khh) = src.K
    sine = src.law is math.sin
    # (s1, -c1): s1 c2 + (-c1) s2 is s1 c2 - c1 s2 to the bit, as x - y is x + (-y) and rounding is odd in sign.
    arm1 = [
        (c * kvv + s * khv, c * kvh + s * khh, s if sine else c, -c if sine else s)
        for t in t1s
        for c, s in [(math.cos(t), math.sin(t))]
    ]
    arm2 = [(math.cos(t), math.sin(t)) for t in t2s]
    values = [
        0 if (amp := abs(u0 * c2 + u1 * s2)) <= EPS_PRUNE else amp ** 2
        for (u0, u1, _, _), (c2, s2) in itertools.product(arm1, arm2)
    ]
    peak = src.peak
    closed_forms = [peak * (x1 * c2 + y1 * s2) ** 2 for (_, _, x1, y1), (c2, s2) in itertools.product(arm1, arm2)]
    tolerance = max(1e-9 * peak, EPS_PRUNE ** 2)
    return _results(zip(itertools.repeat("coincidence_rate"), values, closed_forms, itertools.repeat(tolerance)))


def _results(rows: Iterable[tuple[str, float, float, float]]) -> list[ScenarioResult]:
    """A ScenarioResult of each (observable, value, closed_form, tolerance) row, as ScenarioResult._make makes it."""
    return list(map(tuple.__new__, itertools.repeat(ScenarioResult), rows))


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


def _fig3_closed_form(kind: str, samples: Sequence[det.BeamSamples]) -> float:
    """Visibility of the first-order interference of the two beam envelopes
    e = ex ey and phasors (cos p, sin p) of BeamProfile.sample, by row and
    column as in intensity_map with analytic coefficients: e1^2 + e2^2 +
    2 e1 e2 cos(p1 - p2) for psi_u (one combination mode reaches the screen
    through both beams) and (e1^2 + e2^2) / 2 for psi_e (H1 and V2 add
    incoherently, occupation 1/2 each).  It takes no trig of its own."""
    (ex1, ey1, z1), (ex2, ey2, z2) = samples
    occupation = 0.5 if kind == "psi_e" else 1.0
    squares = [e * e * occupation for e in ey1], [e * e * occupation for e in ey2]
    if kind == "psi_e":
        return det.visibility((list(zip(*squares)), [(e1 * e1, e2 * e2) for e1, e2 in zip(ex1, ex2)]))
    # cos(p1 - p2) by angle addition, as the map takes one phasor per beam: p1 - p2 would round first.
    phasors = zip(ex1, ex2, z1, z2)
    columns = [(e1 * e1, e2 * e2, 2.0 * e1 * e2 * (c1 * c2 + s1 * s2)) for e1, e2, (c1, s1), (c2, s2) in phasors]
    return det.visibility((list(zip(*squares, map(operator.mul, ey1, ey2))), columns))


@functools.cache
def _fig3_gram(kind: str) -> tuple[float, float, complex]:
    """The Gram triple (<u|u>, <w|w>, <u|w>) of the kind's state under its
    two screen forms (fig3_visibility), u = f|ket> and w = g|ket>."""
    if kind not in ("psi_e", "psi_u"):
        raise ValueError(f"no overlap scenario for state {kind!r}")
    forms = [unit_form(H1), unit_form(V2)] if kind == "psi_e" else [combination_forms()[1]] * 2
    u, w = (apply_form(named_state(kind), form) for form in forms)
    return norm2(u), norm2(w), inner(u, w)


def fig3_visibility(
    kind: str,
    beams: Sequence[det.BeamProfile] | None = None,
    grid: det.ScanGrid | None = None,
) -> ScenarioResult:
    """Fringe visibility of the two overlapped channels on one screen.

    Channel 1 is analyzed horizontally and rotated to vertical, channel 2 is
    analyzed vertically, so both beams hit the screen in the same
    polarization and only the state decides whether they interfere.  The
    map and the closed form share the beams' samples.
    """
    gram = _fig3_gram(kind)
    grid = grid or det.DEFAULT_GRID
    beams = tuple(beams) if beams is not None else det.DEFAULT_BEAMS
    samples = [beam.sample(grid) for beam in beams]
    return ScenarioResult(
        observable="visibility",
        value=det.visibility(det.intensity_map(gram, samples)),
        closed_form=_fig3_closed_form(kind, samples),
    )


# --- channel statistics -----------------------------------------------------------


#: Closed-form outcome probabilities (both in 1, both in 2, one in each) of
#: every state kind with a channel decomposition.
SAME_CHANNEL_CLOSED_FORMS = {
    "circular_pair": (0.25, 0.25, 0.5),
    "psi_e": (0.0, 0.0, 1.0),
    "psi_u": (0.25, 0.25, 0.5),
}


def same_channel_table(kind: str) -> list[ScenarioResult]:
    """Outcome probabilities {both in 1, both in 2, one in each}.  Both
    photons in one channel is ||M||_F^2 / 2 of that arm's pair matrix M
    (Source.same_channel), which counts each pair twice (ordered); one in
    each, summed over polarizations, is ||K||_F^2 (Source.T)."""
    src = source(kind)
    values = [(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2) / 2.0 for (a, b), (c, d) in src.same_channel]
    values.append(src.T[0])
    names = ("both_ch1", "both_ch2", "split")
    return [ScenarioResult(*row) for row in zip(names, values, SAME_CHANNEL_CLOSED_FORMS[kind])]


# --- correlation coefficients -------------------------------------------------------


def _d(t: float) -> tuple[float, float]:
    """(cos 2t, sin 2t) from cos t and sin t, finite wherever t is (2t
    overflows for |t| > 8.9e307)."""
    c, s = math.cos(t), math.sin(t)
    return c * c - s * s, 2.0 * c * s


def _checked_T(src: Source) -> tuple[float, float, float, float, float]:
    """src.T, or det.AllDark if the four rates of every correlation vanish."""
    T = src.T
    if T[0] <= EPS_ZERO:
        raise det.AllDark("all four coincidence rates vanish at these analyzer angles")
    return T


def _bilinear(T: tuple[float, ...], x: tuple[float, float], y: tuple[float, float]) -> float:
    """x^T T y, T = Source.T (its first entry, ||K||_F^2, unused)."""
    return x[0] * (T[1] * y[0] + T[2] * y[1]) + x[1] * (T[3] * y[0] + T[4] * y[1])


def correlation_E(src: Source, theta1: float, theta2: float) -> float:
    """Two-channel correlation coefficient estimated from four analyzer
    settings (each angle also rotated by pi/2): d(theta1)^T T d(theta2) /
    ||K||_F^2 (Source.T), closing to -/+cos 2(theta1 - theta2) under the
    sin^2/cos^2 law; det.AllDark if all four rates vanish."""
    T = _checked_T(src)
    return _bilinear(T, _d(theta1), _d(theta2)) / T[0]


def _chsh_S(T: tuple[float, ...], ds: Sequence[tuple[float, float]]) -> float:
    """chsh_S from T = Source.T and the d vectors of its four angles."""
    da, dap, (b0, b1), (c0, c1) = ds
    return (_bilinear(T, da, (b0 - c0, b1 - c1)) + _bilinear(T, dap, (b0 + c0, b1 + c1))) / T[0]


def chsh_S(src: Source, a: float, ap: float, b: float, bp: float) -> float:
    """Four-setting correlation sum E(a,b) - E(a,b') + E(a',b) + E(a',b')
    (correlation_E), as [d(a)^T T (d(b) - d(b')) + d(a')^T T (d(b) + d(b'))]
    / ||K||_F^2."""
    return _chsh_S(_checked_T(src), (_d(a), _d(ap), _d(b), _d(bp)))


# --- experiment registry and scans ------------------------------------------------------


class Experiment(NamedTuple):
    """Everything the scenario layer knows about one named experiment.

    rows(state, geometry, beams, columns) evaluates the scenario over
    columns, one list of radians per angle in angles order: one result row
    per point of their product, in product order, a fixed angle being a list
    of one.  fig3 and same-channel have no angles and return their whole
    table.
    """

    angles: dict[str, float]  # parameter name -> default, in degrees
    states: tuple[str, ...]
    default_state: str
    rows: Callable[[str, CascadeGeometry, Sequence[det.BeamProfile], Sequence[Sequence[float]]], list[ScenarioResult]]


def _pair_experiment(names: tuple[str, str], states: tuple[str, ...], default: str, split: bool = False) -> Experiment:
    def rows(state: str, geometry: CascadeGeometry, beams, columns: Sequence[Sequence[float]]) -> list[ScenarioResult]:
        return coincidence_rows(source(state, geometry, split), *columns)

    return Experiment(dict.fromkeys(names, 0.0), states, default, rows)


def _chsh_closed_form(ds: Sequence[tuple[float, float]]) -> float:
    # Each correlation_E closes to -/+cos 2(x - y) = -/+d(x).d(y); the common sign drops out of abs(S) exactly.
    (a0, a1), (p0, p1), (b0, b1), (c0, c1) = ds
    return abs((a0 * b0 + a1 * b1) - (a0 * c0 + a1 * c1) + (p0 * b0 + p1 * b1) + (p0 * c0 + p1 * c1))


def _chsh_rows(state: str, geometry: CascadeGeometry, beams, columns: Sequence[Sequence[float]]) -> list[ScenarioResult]:
    """abs(chsh_S) and its closed form at each point of the product of the
    columns (a, ap, b, bp), in product order."""
    T = _checked_T(source(state))
    settings = itertools.product(*[map(_d, column) for column in columns])
    return _results([("abs_S", abs(_chsh_S(T, ds)), _chsh_closed_form(ds), 1e-9) for ds in settings])


EXPERIMENTS: dict[str, Experiment] = {
    "fig1": _pair_experiment(("theta1", "theta2"), ("circular_pair",), "circular_pair"),
    "pdc": _pair_experiment(("theta1", "theta2"), ("psi_e", "psi_u"), "psi_u"),
    "fig2": _pair_experiment(("theta3", "theta4"), ("psi_e", "psi_u"), "psi_u", split=True),
    "fig3": Experiment(
        {}, ("psi_e", "psi_u"), "psi_u", lambda state, geometry, beams, columns: [fig3_visibility(state, beams)]
    ),
    "cascade": _pair_experiment(("theta1", "theta2"), ("psi_u_prime",), "psi_u_prime"),
    "chsh": Experiment({"a": 0.0, "ap": 45.0, "b": 22.5, "bp": 67.5}, NAMED_STATE_KINDS, "circular_pair", _chsh_rows),
    "same-channel": Experiment(
        {}, tuple(SAME_CHANNEL_CLOSED_FORMS), "psi_u", lambda state, *_: same_channel_table(state)
    ),
}

#: Analyzer settings that maximize the four-setting correlation sum.
CANONICAL_CHSH_ANGLES = {name: math.radians(deg) for name, deg in EXPERIMENTS["chsh"].angles.items()}


def scan_count(start: float, stop: float, step: float) -> int:
    """Number of points in the inclusive grid start, start + step, ..., stop,
    computed without building the grid; at most MAX_SCAN_POINTS.  A grid
    whose points start + k * step would overflow or repeat is rejected."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("scan bounds and step must be finite")
    if step <= 0.0:
        raise ValueError("scan step must be > 0")
    if stop < start:
        raise ValueError("scan range is empty (to < from)")
    # Floor estimate of the last index; halving keeps stop - start finite.
    last = int(min((stop / 2 - start / 2) / step * 2, MAX_SCAN_POINTS))
    # Past either check start + k * step makes no distinct finite points, and
    # the estimate can be far off; an oversized scan keeps its "more than".
    if math.isinf(last * step):
        raise ValueError("scan offsets k * step overflow the float range")
    widest = max(abs(start), abs(stop))
    if last < MAX_SCAN_POINTS and widest + step == widest:
        raise ValueError("scan step is below the float spacing at the scan bounds")
    # Capped, the limit stays finite where stop + 1e-9 * step would overflow.
    limit = min(stop + 1e-9 * step, sys.float_info.max)
    # Correct the estimate against the inclusive test.
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
