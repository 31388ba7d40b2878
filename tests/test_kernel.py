"""The fast paths against the general engine and the oracle.

experiments.coincidence reads each rate off the two-photon amplitude matrix
Source.K, correlation_E and chsh_S read its correlation matrix Source.T,
the same-channel table reads the pair matrices of the same arms, and
detection.intensity_map evaluates each cell as a Gram form; apply_form,
singles_rate and coincidence_rate (tests/support.py) are the reference.  A fast
result must agree with the engine and with tests/oracle.py within
1e-15 * scale.  Each sum rounds in proportion to the moduli of its terms,
and an amplitude a off by d gives a rate |a|^2 off by up to 2 |a| d; so
scale is twice the rate with every amplitude and coefficient replaced by its
modulus, where no term cancels.  It is at least 1, the scale of a unit-norm
source, since the engine drops amplitudes <= EPS_PRUNE and so has an
absolute precision below that.  A pair matrix takes only two-photon kets,
and a K that is not finite gives rows that are not finite.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from biphoton import detection as det
from biphoton import experiments as ex
from biphoton import optics as op
from biphoton.cli import main
from biphoton.fock import (
    EPS_ZERO,
    FockKet,
    LinearForm,
    apply_form,
    combination_forms,
    inner,
    named_state,
    norm2,
    occupation,
    unit_form,
)
from biphoton.modes import H1, V1, V2
from biphoton.scenario import evaluate, parse_scenario
from support import EIGHT_MODES, coincidence_rate, form_dict, oracle_amplitudes, to_oracle

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300, database=None)

#: The overflowing geometry of the cascade: its K, and so every rate, is not finite.
OVERFLOW_GEOMETRY = ex.CascadeGeometry(1e155 + 1e155j, 1 + 0j, 1 + 0j, 1e155 + 0j)


def abs_form(*terms: tuple[complex, LinearForm]) -> dict:
    """The form sum x f over the (x, f) terms, with every x and coefficient
    replaced by its modulus."""
    out: dict = {}
    for x, form in terms:
        for m, c in form.items():
            out[m] = out.get(m, 0.0) + abs(x) * abs(c)
    return out


def rate_scale(ket: FockKet, abs_forms: list[dict]) -> float:
    """The scale of a rate: abs_forms are its forms as abs_form gives them,
    before any cancellation."""
    abs_ket = oracle.from_amplitudes(oracle_amplitudes((occ, abs(a)) for occ, a in ket.items()))
    return max(1.0, 2.0 * oracle.o_expectation(abs_ket, abs_forms))


def assert_agree(fast: float, ket: FockKet, forms: list[LinearForm], abs_forms: list[dict]) -> None:
    """fast agrees with the engine's rate and the oracle's within 1e-15 * scale."""
    engine = coincidence_rate(ket, *forms) if len(forms) == 2 else det.singles_rate(ket, *forms)
    exact = oracle.o_expectation(to_oracle(ket), [form_dict(form) for form in forms])
    bound = 1e-15 * rate_scale(ket, abs_forms)
    assert abs(fast - engine) <= bound and abs(fast - exact) <= bound, (fast, engine, exact, bound)


def outcome(fn):
    """Type and repr of fn's result, or the type of the exception it raises."""
    try:
        value = fn()
    except (OverflowError, ValueError) as err:
        return type(err)
    return type(value), repr(value)


def arm_forms(src: ex.Source, t1: float, t2: float) -> list[LinearForm]:
    return [op.polarizer(src.arm1, t1), op.polarizer(src.arm2, t2)]


def engine_rate(src: ex.Source, t1: float, t2: float) -> float:
    return coincidence_rate(src.ket, *arm_forms(src, t1, t2))


def oracle_rate(src: ex.Source, t1: float, t2: float) -> float:
    return oracle.o_expectation(to_oracle(src.ket), [form_dict(form) for form in arm_forms(src, t1, t2)])


def arm_abs_forms(src: ex.Source, t1: float, t2: float) -> list[dict]:
    return [abs_form((math.cos(t), arm.v), (math.sin(t), arm.h)) for arm, t in ((src.arm1, t1), (src.arm2, t2))]


def assert_coincidence_agrees(src: ex.Source, t1: float, t2: float) -> None:
    assert_agree(ex.coincidence(src, t1, t2).value, src.ket, arm_forms(src, t1, t2), arm_abs_forms(src, t1, t2))


def all_sources(rng: np.random.Generator) -> list[ex.Source]:
    """The six sources of the experiments, and the cascade on random complex geometries."""
    sources = [ex.source(kind) for kind in ("circular_pair", "psi_e", "psi_u", "psi_u_prime")]
    sources += [ex.source(kind, split=True) for kind in ("psi_e", "psi_u")]
    for _ in range(4):
        coeffs = (complex(*map(float, rng.normal(size=2))) for _ in range(4))
        sources.append(ex.source("psi_u_prime", ex.CascadeGeometry(*coeffs)))
    return sources


def test_coincidence_matches_engine_and_oracle():
    rng = np.random.default_rng(909)
    angles = [0.0, -0.0, 1e308, -1e308, *(k * math.pi / 2 for k in range(-4, 5))]
    angles += [float(t) for t in rng.uniform(-7.0, 7.0, 6)]
    for src in all_sources(rng):
        for t1 in angles:
            for t2 in angles:
                assert_coincidence_agrees(src, t1, t2)


def test_the_four_K_of_the_paper():
    # T / ||K||_F^2 as (T_ZZ, T_ZX, T_XZ, T_XX): -I is the singlet's
    # correlation matrix, +I the triplet's; the split psi_e has K = T = 0.
    k_e, k_u = math.sqrt(0.5), 0.5
    for src, want, unit_T in [
        (ex.source("psi_e"), (0, k_e, -k_e, 0), (-1, 0, 0, -1)),
        (ex.source("psi_u"), (0, k_u, -k_u, 0), (-1, 0, 0, -1)),
        (ex.source("psi_e", split=True), (0, 0, 0, 0), (0, 0, 0, 0)),
        (ex.source("psi_u", split=True), (0.25, 0, 0, 0.25), (1, 0, 0, 1)),
    ]:
        assert [k for row in src.K for k in row] == pytest.approx(want, abs=1e-15)
        n2, *T = src.T
        assert n2 == pytest.approx(sum(abs(k) ** 2 for k in want), abs=1e-15)
        assert T == pytest.approx([n2 * t for t in unit_T], abs=1e-15)


def test_exact_zeros_stay_exact():
    angles = [0.0, -0.0, 1.2, -3.0, *(k * math.pi / 2 for k in range(-4, 5))]
    for kind in ("circular_pair", "psi_e", "psi_u"):
        src = ex.source(kind)
        assert all(ex.coincidence(src, t, t).value == 0 for t in angles), kind
    src = ex.source("psi_e", split=True)
    for t1 in angles:
        for t2 in angles:
            assert outcome(lambda: ex.coincidence(src, t1, t2).value) == (int, "0")


def test_coincidence_closed_form_holds_where_the_angle_difference_overflows():
    # 1e308 - (-1e308) is inf, but the closed form takes each angle's own cos and sin.
    src = ex.source("circular_pair")
    assert_coincidence_agrees(src, 1e308, -1e308)
    result = ex.coincidence(src, 1e308, -1e308)
    assert result.value == pytest.approx(0.16331001973043988, abs=1e-15)
    assert math.isfinite(result.closed_form) and result.abs_error() <= 1e-15


def test_K_of_a_three_photon_ket_raises():
    base = ex.source("psi_u")
    ket = FockKet({**dict(base.ket.items()), occupation({V1: 2, H1: 1}): 0.3})
    with pytest.raises(ValueError, match="two photons"):
        ex.Source(ket, base.arm1, base.arm2, base.peak, base.law).K


def test_an_overflowing_cascade_gives_rows_that_are_not_finite_and_exits_2(capsys):
    src = ex.source("psi_u_prime", OVERFLOW_GEOMETRY)
    assert not any(cmath.isfinite(k) for k in (src.K[0][0], src.K[1][1]))
    for t1, t2 in [(0.0, 0.0), (0.3, 1.1), (math.pi / 2, 0.0), (0.0, 1e308)]:
        assert not math.isfinite(ex.coincidence(src, t1, t2).value)
    geometry = ["1e155+1e155i", "1+0i", "1+0i", "1e155+0i"]
    assert main(["scan", "--experiment", "cascade", "--geometry", *geometry, "--scan", "theta1", "0", "90", "30"]) == 2
    out, err = capsys.readouterr()
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["nan"] * 4
    assert err.startswith("mismatch: 4 of 4 ")


def engine_pair_rate(ket: FockKet, a: op.ChannelField, b: op.ChannelField) -> float:
    """The engine's coincidence rate of arms a and b summed over the (v, h)
    components of each, in order; with a is b it counts both photons in one
    arm twice (ordered pairs)."""
    total = 0.0
    for first in (a.v, a.h):
        for second in (b.v, b.h):
            total += coincidence_rate(ket, first, second)
    return total


@pytest.mark.parametrize("kind", ex.SAME_CHANNEL_CLOSED_FORMS)
def test_same_channel_table_is_the_engine_sum_bit_for_bit(kind):
    src = ex.source(kind)
    both1, both2, split = (row.value for row in ex.same_channel_table(kind))
    assert both1 == engine_pair_rate(src.ket, src.arm1, src.arm1) / 2.0
    assert both2 == engine_pair_rate(src.ket, src.arm2, src.arm2) / 2.0
    assert split == engine_pair_rate(src.ket, src.arm1, src.arm2)


def four_rates(rate, src: ex.Source, t1: float, t2: float) -> list[float]:
    """rate(src, ...) at the settings (t1, t2), (t1', t2'), (t1, t2'), (t1', t2),
    t' = t + pi/2: the two same-basis rates of one correlation, then the two
    crossed ones."""
    q1, q2 = t1 + math.pi / 2, t2 + math.pi / 2
    return [rate(src, t1, t2), rate(src, q1, q2), rate(src, t1, q2), rate(src, q1, t2)]


def four_rate_E(rate, src: ex.Source, t1: float, t2: float) -> float:
    """The correlation coefficient from the four rates of four_rates."""
    xy, xpyp, xyp, xpy = four_rates(rate, src, t1, t2)
    return (xy + xpyp - xyp - xpy) / (xy + xpyp + xyp + xpy)


def test_chsh_point_matches_engine():
    rng = np.random.default_rng(5)
    angle_sets = [ex.CANONICAL_CHSH_ANGLES]
    angle_sets += [dict(zip(("a", "ap", "b", "bp"), map(float, rng.uniform(-4, 4, 4)))) for _ in range(4)]
    for kind in ("circular_pair", "psi_e", "psi_u", "psi_u_prime"):
        src = ex.source(kind)
        fast = [ex.chsh_S(src, **angles) for angles in angle_sets]
        for rate in (engine_rate, oracle_rate):
            E = functools.partial(four_rate_E, rate, src)
            reference = [E(a, b) - E(a, bp) + E(ap, b) + E(ap, bp) for a, ap, b, bp in map(dict.values, angle_sets)]
            assert fast == pytest.approx(reference, abs=1e-14), rate


@pytest.mark.parametrize("scanned", ["theta1", "theta2"])
def test_a_scan_runs_the_engine_only_to_build_K(monkeypatch, scanned):
    calls = [0]
    original = ex.apply_form

    def counted(ket, form):
        calls[0] += 1
        return original(ket, form)

    monkeypatch.setattr(ex, "apply_form", counted)
    ex._shared_source.cache_clear()
    fixed = "theta2" if scanned == "theta1" else "theta1"
    spec = parse_scenario(f"experiment pdc\nstate psi_u\nangle {fixed} 10\nscan {scanned} 0 180 0.5\n")
    rows = evaluate(spec)
    assert len(rows) == 361 and calls[0] == 6  # one apply per arm-1 form, then one per entry of K
    assert evaluate(spec) == rows and calls[0] == 6  # the source and its K are kept


# --- scan rows against the per-point coincidence and chsh_S ------------------------------

#: Scanned columns hit the exact zeros, huge angles and random values alike.
SPECIAL_ANGLES = [0.0, -0.0, math.pi / 2, -math.pi, 1e308, -1e308, 1e-300]


def column_cases(rng: np.random.Generator, n: int) -> list[list[list[float]]]:
    """Columns of n angles: each angle scanned in turn over specials and random
    values, the others fixed (columns of one) at random values, all at 1e308 or
    all at 0; then the first and last angles scanned together over two shorter
    columns, the others fixed at random values, which pins product order."""
    column = SPECIAL_ANGLES + [float(t) for t in rng.uniform(-7.0, 7.0, 40)]
    fixed = [[float(t) for t in rng.uniform(-7.0, 7.0, n)], [1e308] * n, [0.0] * n]
    cases = [[column if i == slot else [t] for i, t in enumerate(radians)] for slot in range(n) for radians in fixed]
    first, last = ([*SPECIAL_ANGLES, *(float(t) for t in rng.uniform(-7.0, 7.0, 5))] for _ in range(2))
    cases.append([first, *([float(t)] for t in rng.uniform(-7.0, 7.0, n - 2)), last[::-1]])
    return cases


def assert_rows_are_points(rows, point, columns) -> None:
    """rows(columns) gives point(*angles) at each point of the product of
    columns, in product order, by repr; where a point raises, rows raises one
    of the points' exception types (a scan prints no row then)."""
    want = [outcome(lambda: point(*angles)) for angles in itertools.product(*columns)]
    try:
        got = [(type(row), repr(row)) for row in rows(columns)]
    except (OverflowError, ValueError) as err:
        assert type(err) in want, columns
        return
    assert got == want, columns


PAIR_CASES = [
    (experiment, state, geometry)
    for experiment in ("fig1", "pdc", "fig2", "cascade")
    for state in ex.EXPERIMENTS[experiment].states
    for geometry in ([ex.CascadeGeometry(), ex.CascadeGeometry(0.3 - 1.2j, 2 + 1j, -0.7 + 0.1j, 1.5 - 0.5j),
                      ex.CascadeGeometry(1e200 + 0j, 1 + 0j, 1 + 0j, 1e200 + 0j), OVERFLOW_GEOMETRY]
                     if experiment == "cascade" else [ex.CascadeGeometry()])
]


@pytest.mark.parametrize("experiment,state,geometry", PAIR_CASES)
def test_a_coincidence_column_is_the_per_point_coincidence_by_repr(experiment, state, geometry):
    src = ex.source(state, geometry, experiment == "fig2")
    assert all(cmath.isfinite(k) for row in src.K for k in row) == (abs(geometry.g11) < 1e150)
    rows = functools.partial(ex.EXPERIMENTS[experiment].rows, state, geometry, det.DEFAULT_BEAMS)
    for columns in column_cases(np.random.default_rng(61), 2):
        assert_rows_are_points(rows, lambda t1, t2: ex.coincidence(src, t1, t2), columns)


@pytest.mark.parametrize("state", ex.NAMED_STATE_KINDS)
def test_a_chsh_column_is_the_per_point_chsh_S_by_repr(state):
    src = ex.source(state)
    rows = functools.partial(ex.EXPERIMENTS["chsh"].rows, state, ex.CascadeGeometry(), det.DEFAULT_BEAMS)

    def point(a, ap, b, bp):
        # cos 2(x - y) = d(x).d(y), d(t) = (cos 2t, sin 2t) from cos t and sin t.
        (a0, a1), (p0, p1), (b0, b1), (c0, c1) = (ex._d(t) for t in (a, ap, b, bp))
        closed = abs((a0 * b0 + a1 * b1) - (a0 * c0 + a1 * c1) + (p0 * b0 + p1 * b1) + (p0 * c0 + p1 * c1))
        return ex.ScenarioResult("abs_S", abs(ex.chsh_S(src, a, ap, b, bp)), closed)

    for columns in column_cases(np.random.default_rng(62), 4):
        assert_rows_are_points(rows, point, columns)


def test_an_arm_2_scan_with_K_calls_neither_coincidence_nor_the_engine(monkeypatch):
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(ex, "coincidence"), (ex, "apply_form"), (det, "apply_form"), (det, "singles_rate"),
                         (op, "polarizer")]:
        counted(module, name)
    rows = evaluate(parse_scenario("experiment pdc\nstate psi_u\nangle theta1 10\nscan theta2 0 180 0.25\n"))
    assert len(rows) == 721 and calls == Counter()


# --- the hypothesis property: random two-photon kets and forms over eight modes ---------------

mode = st.sampled_from(EIGHT_MODES)
coeff = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False)
forms = st.dictionaries(mode, coeff, min_size=1, max_size=len(EIGHT_MODES)).map(LinearForm)
angle = st.floats(-7.0, 7.0)


@st.composite
def kets(draw, photons: tuple[int, ...] = (2,)) -> FockKet:
    """One to six terms over the eight modes, each with a photon number from photons."""
    amplitudes = {}
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.sampled_from(photons))
        amplitudes[occupation(Counter(draw(st.lists(mode, min_size=n, max_size=n))))] = draw(coeff)
    return FockKet(amplitudes)


@PROPERTY
@given(kets(), forms, forms, forms, forms, angle, angle)
def test_K_agrees_with_engine_and_oracle_on_random_kets_and_forms(ket, v1, h1, v2, h2, t1, t2):
    src = ex.Source(ket, op.ChannelField(v1, h1), op.ChannelField(v2, h2), 1.0, math.sin)
    assert_coincidence_agrees(src, t1, t2)
    # The T form of E against the four-rate E: each of N = same - cross and
    # D = same + cross is off by up to 1e-15 * scale on every path, so E = N / D
    # by up to 2e-15 * scale / D between the T form and the exact value, and
    # twice that against the engine, whose four rates round too.
    exact = four_rates(oracle_rate, src, t1, t2)
    scale = sum(four_rates(lambda s, u, w: rate_scale(ket, arm_abs_forms(s, u, w)), src, t1, t2))
    total = sum(exact)
    try:
        fast = ex.correlation_E(src, t1, t2)
    except det.AllDark:
        assert total <= EPS_ZERO + 1e-15 * scale
        return
    bound = 4e-15 * scale / total
    assert abs(fast - (exact[0] + exact[1] - exact[2] - exact[3]) / total) <= bound
    assert abs(fast - four_rate_E(engine_rate, src, t1, t2)) <= bound


@PROPERTY
@given(kets(photons=(1, 2, 3)), forms, forms, coeff, coeff)
def test_gram_form_agrees_with_engine_and_oracle_on_random_kets_and_forms(ket, f, g, a, b):
    # A one-point grid: beam 1 gives a and beam 2 gives b there.
    beams = [det.BeamProfile(tilt=0.0, phase_offset=math.atan2(z.imag, z.real), amplitude=abs(z)) for z in (a, b)]
    [[cell]] = det.intensity_map(ket, [f, g], [beam.sample(det.ScanGrid(xs=(0.0,))) for beam in beams])
    a, b = (oracle.beam_value(beam, 0.0, 0.0) for beam in beams)
    assert_agree(cell, ket, [f.scale(a).plus(g.scale(b))], [abs_form((a, f), (b, g))])


# --- fig3 maps on seeded beams and grids ------------------------------------------------------


def random_beam(rng: np.random.Generator) -> det.BeamProfile:
    kind = str(rng.choice(det.BEAM_KINDS))
    return det.BeamProfile(
        kind=kind,
        tilt=float(rng.uniform(-20.0, 20.0)),
        width=float(rng.uniform(0.2, 2.0)) if kind == "gaussian" else None,
        phase_offset=float(rng.uniform(-7.0, 7.0)),
        amplitude=float(rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)])),
    )


def gram_cell(ket: FockKet, forms_: list[LinearForm], a: complex, b: complex) -> tuple[float, float]:
    """The Gram form |a|^2 <u|u> + |b|^2 <w|w> + 2 Re(conj(a) b <u|w>) of u, w = forms_ |ket>, one cell at a
    time, and its scale: twice the form with every factor replaced by its modulus."""
    u, w = (apply_form(ket, form) for form in forms_)
    uu, ww, uw = norm2(u), norm2(w), inner(u, w)
    scale = 2.0 * (abs(a) ** 2 * uu + abs(b) ** 2 * ww + 2.0 * abs(a) * abs(b) * abs(uw))
    return abs(a) ** 2 * uu + abs(b) ** 2 * ww + 2.0 * (a.conjugate() * b * uw).real, scale


@pytest.mark.parametrize("kind", ["psi_e", "psi_u"])
def test_intensity_map_matches_per_cell_singles_rate(kind):
    rng = np.random.default_rng(33 if kind == "psi_e" else 34)
    forms_ = [unit_form(H1), unit_form(V2)] if kind == "psi_e" else [combination_forms()[1]] * 2
    ket = named_state(kind)

    def cases():
        for _ in range(40):
            beam1, beam2 = random_beam(rng), random_beam(rng)
            grid = det.ScanGrid(
                xs=tuple(map(float, rng.uniform(-2.0, 2.0, int(rng.integers(1, 8))))),
                ys=tuple(map(float, rng.uniform(-2.0, 2.0, int(rng.integers(1, 4))))),
            )
            yield beam1, beam2, grid
        # A phase that is huge but finite up to x = 0.5 and inf at x = 1: a NaN cell there.
        yield det.BeamProfile(tilt=1e308, phase_offset=1e308), random_beam(rng), det.ScanGrid((-1.0, 0.0, 0.5, 1.0))

    nan_cells = 0
    for beam1, beam2, grid in cases():
        fringe_map = det.intensity_map(ket, forms_, [beam1.sample(grid), beam2.sample(grid)])
        assert [len(row) for row in fringe_map] == [len(grid.xs)] * len(grid.ys)
        for y, row in zip(grid.ys, fringe_map):
            for x, cell in zip(grid.xs, row):
                a, b = oracle.beam_value(beam1, x, y), oracle.beam_value(beam2, x, y)
                # The map factors each term into a row and a column value, so it rounds apart from the
                # per-cell form by a few ulps of its moduli.
                want, scale = gram_cell(ket, forms_, a, b)
                assert abs(cell - want) <= 1e-15 * scale or (math.isnan(cell) and math.isnan(want)), (x, y)
                if math.isnan(want):
                    nan_cells += 1
                    continue
                form = forms_[0].scale(a).plus(forms_[1].scale(b))
                assert_agree(cell, ket, [form], [abs_form((a, forms_[0]), (b, forms_[1]))])
    assert nan_cells == 1
