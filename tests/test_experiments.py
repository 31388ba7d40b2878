"""Scenario-level checks: closed-form laws, discriminators, correlation sums."""

from __future__ import annotations

import cmath
import math
import sys
from collections import Counter

import numpy as np
import pytest

import oracle
from biphoton import detection as det
from biphoton import experiments as ex
from biphoton import fock as fk
from biphoton import optics as op
from biphoton import scenario as sc
from biphoton.modes import BEAM_H, BEAM_V
from support import normalized

SQRT2 = math.sqrt(2.0)


# --- fig1 ---------------------------------------------------------------------


def test_fig1_quarter_peak():
    assert ex.coincidence(ex.source("circular_pair"), 0.0, math.pi / 2).value == pytest.approx(0.25, abs=1e-14)


def test_fig1_equal_angles_dark():
    assert ex.coincidence(ex.source("circular_pair"), 0.9, 0.9).value == pytest.approx(0.0, abs=1e-15)


def test_fig1_eighth_turn_value():
    result = ex.coincidence(ex.source("circular_pair"), math.pi / 6, -math.pi / 12)
    assert result.value == pytest.approx(0.125, abs=1e-14)
    assert result.closed_form == pytest.approx(0.125, abs=1e-14)


def test_fig1_matches_closed_form_on_grid():
    src = ex.source("circular_pair")
    for delta in np.linspace(0.0, math.pi, 73):
        result = ex.coincidence(src, 0.0, delta)
        assert result.abs_error() <= 1e-12


def test_fig1_rotational_covariance():
    for delta in (0.1, 0.8, 2.0):
        base = ex.coincidence(ex.source("circular_pair"), 0.3, 1.0).value
        shifted = ex.coincidence(ex.source("circular_pair"), 0.3 + delta, 1.0 + delta).value
        assert shifted == pytest.approx(base, abs=1e-13)


def test_fig1_angle_periodicity():
    base = ex.coincidence(ex.source("circular_pair"), 0.25, 1.5).value
    assert ex.coincidence(ex.source("circular_pair"), 0.25 + math.pi, 1.5).value == pytest.approx(base, abs=1e-13)
    assert ex.coincidence(ex.source("circular_pair"), 0.25, 1.5 + math.pi).value == pytest.approx(base, abs=1e-13)


def test_angle_periodicity_across_scenarios():
    laws = [
        lambda t: ex.coincidence(ex.source("psi_e"), t, 0.4).value,
        lambda t: ex.coincidence(ex.source("psi_u"), 0.2 - t, 0.9).value,
        lambda t: ex.coincidence(ex.source("psi_u", split=True), t, 0.1).value,
        lambda t: ex.coincidence(ex.source("psi_u_prime"), t, 0.3).value,
    ]
    for rate in laws:
        assert rate(0.7 + math.pi) == pytest.approx(rate(0.7), abs=1e-13)


def test_pdc_rotational_covariance():
    for kind in ("psi_e", "psi_u"):
        base = ex.coincidence(ex.source(kind), 0.3, 1.0).value
        for delta in (0.4, 1.7):
            assert ex.coincidence(ex.source(kind), 0.3 + delta, 1.0 + delta).value == pytest.approx(base, abs=1e-13)


def test_fig1_conditional_rate_is_half_for_all_angles():
    rng = np.random.default_rng(41)
    src = ex.source("circular_pair")
    for theta in rng.uniform(-math.pi, math.pi, size=16):
        assert ex.fig1_conditional_check(src, float(theta)) == pytest.approx(0.5, abs=1e-13)


def test_fig1_conditional_rate_normalized_is_one():
    theta = 0.7
    ch1, _ = ex.fig1_channel_fields()
    leftover = normalized(fk.apply_form(fk.named_state("circular_pair"), op.polarizer(ch1, theta)))
    bare_analyzer = fk.LinearForm({BEAM_V: math.cos(theta), BEAM_H: -math.sin(theta)})
    assert det.singles_rate(leftover, bare_analyzer) == pytest.approx(1.0, abs=1e-13)


# --- pdc ----------------------------------------------------------------------


def test_pdc_peak_constants():
    assert ex.coincidence(ex.source("psi_e"), 0.0, math.pi / 2).value == pytest.approx(0.5, abs=1e-14)
    assert ex.coincidence(ex.source("psi_u"), 0.0, math.pi / 2).value == pytest.approx(0.25, abs=1e-14)


def test_pdc_equal_angles_dark():
    for kind in ("psi_e", "psi_u"):
        assert ex.coincidence(ex.source(kind), 1.2, 1.2).value == pytest.approx(0.0, abs=1e-15)


def test_pdc_normalized_shapes_agree():
    deltas = np.linspace(0.0, math.pi, 73)
    src_e, src_u = ex.source("psi_e"), ex.source("psi_u")
    curve_e = np.array([ex.coincidence(src_e, 0.0, d).value for d in deltas])
    curve_u = np.array([ex.coincidence(src_u, 0.0, d).value for d in deltas])
    np.testing.assert_allclose(curve_e / curve_e.max(), curve_u / curve_u.max(), atol=1e-9)


def test_pdc_matches_closed_form_on_grid():
    for kind in ("psi_e", "psi_u"):
        for delta in np.linspace(0.0, math.pi, 37):
            assert ex.coincidence(ex.source(kind), 0.2, 0.2 + delta).abs_error() <= 1e-12


def test_pdc_rejects_unknown_state():
    with pytest.raises(sc.ValidationError):
        sc.parse_scenario("experiment pdc\nstate psi_u_prime\n")


# --- fig2 ----------------------------------------------------------------------


def test_fig2_unentangled_peak():
    assert ex.coincidence(ex.source("psi_u", split=True), 0.0, 0.0).value == pytest.approx(0.0625, abs=1e-14)


def test_fig2_entangled_identically_zero():
    for t3, t4 in [(0.0, 0.0), (0.3, 1.1), (2.0, -0.7)]:
        assert ex.coincidence(ex.source("psi_e", split=True), t3, t4).value <= 1e-12


def test_fig2_crossed_analyzers_dark():
    assert ex.coincidence(ex.source("psi_u", split=True), 0.4, 0.4 + math.pi / 2).value == pytest.approx(0.0, abs=1e-14)


def test_fig2_discriminator_dichotomy():
    thetas = np.linspace(0.0, math.pi, 73)
    src_u, src_e = ex.source("psi_u", split=True), ex.source("psi_e", split=True)
    rates_u = [ex.coincidence(src_u, t, 0.0).value for t in thetas]
    rates_e = [ex.coincidence(src_e, t, 0.0).value for t in thetas]
    assert max(rates_u) >= 0.06
    assert max(rates_e) <= 1e-12
    for theta, rate in zip(thetas, rates_u):
        assert rate == pytest.approx(math.cos(theta) ** 2 / 16.0, abs=1e-12)


# --- fig3 ----------------------------------------------------------------------


def test_fig3_visibility_dichotomy():
    bright = ex.fig3_visibility("psi_u")
    dark = ex.fig3_visibility("psi_e")
    assert bright.value == pytest.approx(1.0, abs=1e-9)
    assert dark.value == pytest.approx(0.0, abs=1e-9)
    assert bright.closed_form == 1.0
    assert dark.closed_form == 0.0


def test_fig3_psi_e_map_is_exactly_flat():
    # Each cell is e1^2 <u|u> + e2^2 <w|w> + e1 e2 C, and C is exactly 0 for
    # orthogonal u and w: no phasor's rounding reaches the visibility.
    assert ex.fig3_visibility("psi_e").value == 0.0


def test_fig3_explicit_default_grid_keeps_the_closed_form():
    explicit = ex.fig3_visibility("psi_u", None, det.DEFAULT_GRID)
    assert explicit == ex.fig3_visibility("psi_u")
    assert explicit.closed_form == 1.0
    same_points = det.ScanGrid(xs=tuple(k * 0.01 for k in range(101)))
    assert ex.fig3_visibility("psi_u", None, same_points).closed_form == 1.0
    coarse = det.ScanGrid(xs=tuple(k * 0.02 for k in range(51)))
    result = ex.fig3_visibility("psi_u", None, coarse)
    assert result.closed_form == pytest.approx(1.0, abs=1e-12)
    assert result.abs_error() <= 1e-12


def test_fig3_one_beam_off_kills_fringes():
    beams = (det.BeamProfile(), det.BeamProfile(tilt=-det.DEFAULT_TILT, amplitude=0.0))
    for kind in ("psi_u", "psi_e"):
        assert ex.fig3_visibility(kind, beams=beams).value == pytest.approx(0.0, abs=1e-12)


def test_fig3_unequal_amplitudes_closed_form():
    beams = (det.BeamProfile(amplitude=1.0), det.BeamProfile(tilt=-det.DEFAULT_TILT, amplitude=0.5))
    result = ex.fig3_visibility("psi_u", beams=beams)
    assert result.closed_form == pytest.approx(0.8)
    assert result.value == pytest.approx(0.8, abs=1e-12)


def test_fig3_gaussian_beams_match_the_envelope_closed_form():
    beams = (
        det.BeamProfile(kind="gaussian", width=0.5),
        det.BeamProfile(kind="gaussian", tilt=-det.DEFAULT_TILT, width=0.5),
    )
    result = ex.fig3_visibility("psi_u", beams=beams)
    assert 0.0 <= result.closed_form <= 1.0
    assert result.abs_error() <= 1e-12
    # psi_e with a gaussian (width 0.5) and a plane wave on x in [0, 1]: the
    # map (exp(-4 x^2) + 1) / 2 runs from 1 at x = 0 to (e^-4 + 1) / 2 at x = 1.
    beams = (det.BeamProfile(kind="gaussian", tilt=3.0, width=0.5), det.BeamProfile(tilt=-det.DEFAULT_TILT))
    result = ex.fig3_visibility("psi_e", beams=beams)
    assert result.closed_form == pytest.approx((1.0 - math.exp(-4.0)) / (3.0 + math.exp(-4.0)), abs=1e-15)
    assert result.abs_error() <= 1e-12


def test_fig3_relative_phase_shifts_fringes_but_not_visibility_off_grid():
    beams = (det.BeamProfile(phase_offset=0.3), det.BeamProfile(tilt=-det.DEFAULT_TILT))
    result = ex.fig3_visibility("psi_u", beams=beams)
    assert 0.99 < result.closed_form < 1.0
    assert result.abs_error() <= 1e-12


@pytest.mark.parametrize("kind", ["psi_u", "psi_e"])
def test_fig3_engine_matches_the_envelope_closed_form_on_random_beams_and_grids(kind):
    rng = np.random.default_rng(83)

    def random_beam(sign: float) -> det.BeamProfile:
        gaussian = rng.random() < 0.5
        return det.BeamProfile(
            kind="gaussian" if gaussian else "plane_wave",
            tilt=sign * float(rng.uniform(0.0, 20.0)),
            width=float(rng.uniform(0.3, 2.0)) if gaussian else None,
            phase_offset=float(rng.uniform(-math.pi, math.pi)),
            amplitude=float(rng.uniform(0.2, 2.0)),
        )

    for _ in range(100):
        xs = tuple(float(x) for x in rng.uniform(-1.0, 1.0, int(rng.integers(2, 16))))
        ys = tuple(float(y) for y in rng.uniform(-1.0, 1.0, int(rng.integers(1, 5))))
        beams = (random_beam(1.0), random_beam(-1.0))
        result = ex.fig3_visibility(kind, beams, det.ScanGrid(xs, ys))
        assert abs(result.value - result.closed_form) <= 1e-12, result
        # The closed form takes each envelope as two factors and sums a cell by row and column, the oracle
        # one gaussian of x^2 + y^2 per point: a cell differs by a few ulps d of (amp1 + amp2)^2, and
        # (max - min) / (max + min) by up to 2 d / (max + min).
        want = oracle.fig3_closed_form(kind, beams, xs, ys)
        cells = [oracle.fig3_intensity(kind, beams, x, y) for y in ys for x in xs]
        bound = 8.0 * 2.0**-52 * (beams[0].amplitude + beams[1].amplitude) ** 2 / (max(cells) + min(cells))
        assert abs(result.closed_form - want) <= bound, (result, want)


class CountingExp:
    """A stand-in for the math or cmath module that counts calls of its exp."""

    def __init__(self, module, counts: Counter) -> None:
        self._module, self._counts = module, counts

    def __getattr__(self, name: str):
        attr = getattr(self._module, name)
        if name != "exp":
            return attr

        def counted(z):
            self._counts[self._module.__name__] += 1
            return attr(z)

        return counted


def test_a_fig3_row_takes_each_exponential_once_per_axis_and_beam(monkeypatch):
    counts: Counter = Counter()
    monkeypatch.setattr(det, "math", CountingExp(math, counts))
    monkeypatch.setattr(det, "cmath", CountingExp(cmath, counts))
    nx, ny = 7, 5
    grid = det.ScanGrid(xs=tuple(-1.0 + 0.3 * i for i in range(nx)), ys=tuple(-0.8 + 0.4 * j for j in range(ny)))
    beams = (
        det.BeamProfile(kind="gaussian", tilt=7.5, width=0.6, phase_offset=0.3),
        det.BeamProfile(kind="gaussian", tilt=-9.0, width=0.8, phase_offset=1.1),
    )
    for kind in ("psi_u", "psi_e", "psi_u"):
        counts.clear()
        ex.fig3_visibility(kind, beams, grid)
        # One phasor per column and beam, one gaussian factor per column, per row and beam.
        assert counts == {"cmath": 2 * nx, "math": 2 * (nx + ny)}, kind
    for kind in ("psi_u", "psi_e"):
        counts.clear()
        ex.fig3_visibility(kind, det.DEFAULT_BEAMS, grid)
        # A plane wave's envelope is its amplitude: no real exponential at all.
        assert (counts["cmath"], counts["math"]) == (2 * nx, 0), kind


def test_a_fig3_row_calls_detection_intensity_map_once(monkeypatch):
    # Through the module attribute, where a wrapper set on detection sees it.
    calls = []
    real = det.intensity_map

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(det, "intensity_map", counted)
    for kind in ("psi_u", "psi_e"):
        calls.clear()
        assert ex.fig3_visibility(kind).value == pytest.approx(1.0 if kind == "psi_u" else 0.0, abs=1e-9)
        assert len(calls) == 1, kind
        calls.clear()
        rows = sc.evaluate(sc.parse_scenario(f"experiment fig3\nstate {kind}\n"))
        assert len(calls) == len(rows) == 1, kind


# --- cascade --------------------------------------------------------------------


def test_cascade_unit_geometry_peak():
    assert ex.coincidence(ex.source("psi_u_prime"), 0.0, 0.0).value == pytest.approx(0.5, abs=1e-14)


def test_cascade_crossed_analyzers_dark():
    assert ex.coincidence(ex.source("psi_u_prime"), 0.8, 0.8 + math.pi / 2).value == pytest.approx(0.0, abs=1e-14)


def test_cascade_dark_channel():
    geom = ex.CascadeGeometry(g11=0.0)
    for t1, t2 in [(0.0, 0.0), (0.5, 1.0)]:
        assert ex.coincidence(ex.source("psi_u_prime", geom), t1, t2).value == pytest.approx(0.0, abs=1e-15)


def test_cascade_matches_closed_form_with_complex_geometry():
    geom = ex.CascadeGeometry(g11=0.5 + 0.5j, g12=2.0, g21=-1j, g22=0.75 - 0.25j)
    for delta in np.linspace(0.0, math.pi, 37):
        result = ex.coincidence(ex.source("psi_u_prime", geom), 0.1, 0.1 + delta)
        assert result.abs_error() <= 1e-12


def test_cascade_geometry_must_be_finite():
    with pytest.raises(ValueError):
        ex.CascadeGeometry(g12=complex("inf"))


# --- channel statistics -----------------------------------------------------------


def test_same_channel_probabilities():
    u1, u2, _ = ex.same_channel_table("psi_u")
    e1, e2, _ = ex.same_channel_table("psi_e")
    assert u1.value == pytest.approx(0.25, abs=1e-14)
    assert u2.value == pytest.approx(0.25, abs=1e-14)
    assert e1.value == pytest.approx(0.0, abs=1e-14)
    assert e2.value == pytest.approx(0.0, abs=1e-14)


def test_outcome_probabilities_complete():
    for kind in ("circular_pair", "psi_u", "psi_e"):
        both1, both2, split = (row.value for row in ex.same_channel_table(kind))
        total = both1 + both2 + split
        assert total == pytest.approx(1.0, abs=1e-12)


def test_same_channel_table_rows():
    rows = ex.same_channel_table("psi_u")
    assert [r.observable for r in rows] == ["both_ch1", "both_ch2", "split"]
    assert [r.value for r in rows] == pytest.approx([0.25, 0.25, 0.5], abs=1e-13)
    assert all(r.abs_error() <= 1e-12 for r in rows)


# --- correlation coefficients -------------------------------------------------------


@pytest.mark.parametrize("kind", ["circular_pair", "psi_e", "psi_u", "psi_u_prime"])
def test_correlation_matches_analytic_law(kind):
    src = ex.source(kind)
    for t1, t2 in [(0.0, 0.0), (0.2, 0.9), (1.0, -0.4)]:
        closed = (1.0 if src.law is math.cos else -1.0) * math.cos(2.0 * (t1 - t2))
        assert ex.correlation_E(src, t1, t2) == pytest.approx(closed, abs=1e-12)


def test_correlation_zero_at_octave_separation():
    assert ex.correlation_E(ex.source("psi_u"), 0.0, math.pi / 4) == pytest.approx(0.0, abs=1e-12)


def test_correlation_bounded():
    rng = np.random.default_rng(13)
    src = ex.source("psi_e")
    for _ in range(10):
        t1, t2 = rng.uniform(0, math.pi, size=2)
        assert abs(ex.correlation_E(src, float(t1), float(t2))) <= 1.0 + 1e-12


def test_correlation_dark_denominator():
    # The entangled pair never puts both photons into the two halves of channel 2.
    with pytest.raises(det.AllDark):
        ex.correlation_E(ex.source("psi_e", split=True), 0.0, 0.0)


def test_source_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown named state"):
        ex.source("nope")


# --- the per-process source memo ----------------------------------------------------

#: Every (kind, split) that source accepts; a split cascade has no channel fields.
SOURCE_KEYS = [(kind, split) for kind in fk.NAMED_STATE_KINDS for split in (False, True)]
SOURCE_KEYS.remove(("psi_u_prime", True))


@pytest.mark.parametrize("kind,split", SOURCE_KEYS)
def test_a_named_source_is_built_once_per_process(kind, split):
    src = ex.source(kind, split=split)
    assert ex.source(kind, split=split) is src
    assert ex.source(kind, ex.CascadeGeometry(), split) is src
    assert ex.source(kind, ex.CascadeGeometry(1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j), split) is src
    assert src.ket is fk.named_state(kind)


def rows_repr(src: ex.Source) -> list[str]:
    """361-point scan of theta2 at theta1 = 10 degrees; repr tells NaN, -0.0 and int 0 apart."""
    t1 = math.radians(10.0)
    return [repr(ex.coincidence(src, t1, math.radians(0.5 * k))) for k in range(361)]


@pytest.mark.parametrize("kind,split", SOURCE_KEYS)
def test_a_memoized_source_evaluates_like_a_fresh_one(kind, split):
    fresh = ex._build_source(kind, ex.CascadeGeometry(), split)
    kept = ex.source(kind, split=split)
    assert fresh is not kept
    assert rows_repr(kept) == rows_repr(fresh)
    if not split:
        angles = [(math.radians(0.5 * k), 0.8, 0.4, 1.2) for k in range(361)]
        assert [repr(ex.chsh_S(kept, *a)) for a in angles] == [repr(ex.chsh_S(fresh, *a)) for a in angles]


def test_user_geometries_are_never_kept():
    rng = np.random.default_rng(50)
    geometries = [ex.CascadeGeometry(*(complex(*rng.uniform(-2, 2, 2)) for _ in range(4))) for _ in range(50)]
    sources = [ex.source("psi_u_prime", geometry) for geometry in geometries]
    assert len({id(src) for src in sources}) == 50
    for kind, split in SOURCE_KEYS:
        ex.source(kind, split=split)
    for bad in ("nope", "psi_u_prime"):
        with pytest.raises(ValueError):
            ex.source(bad, split=True)
    assert ex._shared_source.cache_info().currsize <= 7
    assert fk.named_state.cache_info().currsize <= 4


@pytest.mark.parametrize("kind", ["circular_pair", "psi_e", "psi_u", "psi_u_prime"])
def test_chsh_canonical_angles_saturate_quantum_bound(kind):
    s = ex.chsh_S(ex.source(kind), **ex.CANONICAL_CHSH_ANGLES)
    assert abs(s) == pytest.approx(2.0 * SQRT2, abs=1e-9)


def test_chsh_identical_for_entangled_and_unentangled():
    args = ex.CANONICAL_CHSH_ANGLES
    s_e = ex.chsh_S(ex.source("psi_e"), **args)
    assert s_e == pytest.approx(ex.chsh_S(ex.source("psi_u"), **args), abs=1e-9)


def test_chsh_degenerate_settings_classical():
    s = ex.chsh_S(ex.source("circular_pair"), 0.0, 0.0, math.pi / 8, math.pi / 8)
    assert abs(s) <= 2.0 + 1e-12


# --- scans and dispatch ---------------------------------------------------------------


def test_scan_values_inclusive_endpoints():
    values = ex.scan_values(0.0, 180.0, 5.0)
    assert len(values) == 37
    assert values[0] == 0.0 and values[-1] == pytest.approx(180.0)


@pytest.mark.parametrize(
    "start,stop,step", [(0.0, 1.0, 0.1), (0.0, 0.3, 0.1), (12.0, 180.0, 7.3), (-5.0, 5.0, 1.0 / 3.0)]
)
def test_scan_values_count_matches_inclusive_loop(start, stop, step):
    expected = []
    while start + len(expected) * step <= stop + 1e-9 * step:
        expected.append(start + len(expected) * step)
    assert ex.scan_values(start, stop, step) == expected
    assert ex.scan_count(start, stop, step) == len(expected)


def test_scan_values_where_the_tolerance_overflows():
    # stop + 1e-9 * step overflows, yet 2e308 is no point of the grid.
    assert ex.scan_values(0.0, sys.float_info.max, 1e308) == [0.0, 1e308]


def test_scan_values_validation():
    with pytest.raises(ValueError):
        ex.scan_values(0.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        ex.scan_values(10.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ex.scan_values(0.0, float("inf"), 1.0)


def run_experiment(experiment, state, columns):
    """The experiment's rows over the product of columns, one list of radians
    per angle."""
    return ex.EXPERIMENTS[experiment].rows(state, ex.CascadeGeometry(), det.DEFAULT_BEAMS, columns)


def test_angle_scan_fig1_rows():
    values = [k * math.pi / 36 for k in range(37)]
    rows = run_experiment("fig1", "circular_pair", [[0.0], values])
    assert len(rows) == 37
    for value, row in zip(values, rows):
        assert row.value == pytest.approx(0.25 * math.sin(value) ** 2, abs=1e-13)
        assert row.abs_error() <= 1e-12


def test_angle_scan_fig2_entangled_all_zero():
    rows = run_experiment("fig2", "psi_e", [(0.0, 0.5, 1.0), [0.2]])
    assert all(row.value <= 1e-12 for row in rows)


def test_angle_scan_empty_grid_rejected():
    with pytest.raises(ValueError):
        sc.parse_scenario("experiment fig1\nscan theta2 10 0 5\n")


def test_scenario_point_chsh_defaults_to_canonical_angles():
    spec = sc.parse_scenario("experiment chsh\nstate circular_pair\n")
    assert {name: math.radians(deg) for name, deg in spec.angles.items()} == ex.CANONICAL_CHSH_ANGLES
    [(_, result)] = sc.evaluate(spec)
    assert result.value == pytest.approx(2.0 * SQRT2, abs=1e-9)
    a, ap, b, bp = ex.CANONICAL_CHSH_ANGLES.values()

    def d(t):  # (cos 2t, sin 2t) from cos t and sin t
        c, s = math.cos(t), math.sin(t)
        return c * c - s * s, 2.0 * c * s

    def E(t1, t2):  # correlation_E's closed form under the sin^2 law: -cos 2(t1 - t2) = -d(t1).d(t2)
        (x0, x1), (y0, y1) = d(t1), d(t2)
        return -(x0 * y0 + x1 * y1)

    assert result.closed_form == abs(E(a, b) - E(a, bp) + E(ap, b) + E(ap, bp))


def test_scenario_point_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        sc.evaluate(sc.parse_scenario("experiment fig9\nstate psi_u\n"))


@pytest.mark.parametrize("experiment", ["fig1", "pdc", "fig2", "cascade"])
def test_default_coincidence_rows_are_gated_at_1e_9_of_their_peak(experiment):
    for state in ex.EXPERIMENTS[experiment].states:
        src = ex.source(state, split=experiment == "fig2")
        [row] = run_experiment(experiment, state, [[0.3], [1.1]])
        # Never looser than the absolute 1e-9 of the other rows; psi_e split (peak 0) demands exact zeros.
        assert row.tolerance == max(1e-9 * src.peak, fk.EPS_PRUNE ** 2) <= 1e-9
        assert row.abs_error() <= row.tolerance


def test_every_result_with_closed_form_is_within_tolerance():
    results = [
        ex.coincidence(ex.source("circular_pair"), 0.3, 1.2),
        ex.coincidence(ex.source("psi_e"), 0.1, 0.9),
        ex.coincidence(ex.source("psi_u"), -0.4, 0.8),
        ex.coincidence(ex.source("psi_u", split=True), 0.2, 0.5),
        ex.coincidence(ex.source("psi_e", split=True), 0.2, 0.5),
        ex.coincidence(ex.source("psi_u_prime"), 0.6, -0.1),
        ex.fig3_visibility("psi_u"),
        ex.fig3_visibility("psi_e"),
        *run_experiment("chsh", "psi_u", [[t] for t in ex.CANONICAL_CHSH_ANGLES.values()]),
        *ex.same_channel_table("circular_pair"),
    ]
    for result in results:
        assert result.abs_error() is not None
        assert result.abs_error() <= 1e-9, result
