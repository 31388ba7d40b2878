"""The fast paths against the general engine and the oracle.

experiments.coincidence reads each rate off the two-photon amplitude matrix
Source.K, and detection.intensity_map evaluates each cell as a Gram form;
apply_form, singles_rate and coincidence_rate are the reference.  A fast
result must agree with the engine and with tests/oracle.py within
1e-15 * scale.  Each sum rounds in proportion to the moduli of its terms,
and an amplitude a off by d gives a rate |a|^2 off by up to 2 |a| d; so
scale is twice the rate with every amplitude and coefficient replaced by its
modulus, where no term cancels.  It is at least 1, the scale of a unit-norm
source, since the engine drops amplitudes <= EPS_PRUNE and so has an
absolute precision below that.  Where K is None (a term that is not
two-photon, or a K that is not finite) coincidence is the engine's value
bit for bit.
"""

from __future__ import annotations

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
from biphoton.fock import (
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
from support import EIGHT_MODES, form_dict, to_oracle

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300, database=None)

#: The overflowing geometry of the cascade: its K is not finite, its rates are inf or overflow.
OVERFLOW_GEOMETRY = ex.CascadeGeometry(1e155 + 1e155j, 1 + 0j, 1 + 0j, 1e155 + 0j)


def abs_form(*terms: tuple[complex, LinearForm]) -> dict:
    """The form sum x f over the (x, f) terms, with every x and coefficient
    replaced by its modulus."""
    out: dict = {}
    for x, form in terms:
        for m, c in form.items():
            out[m] = out.get(m, 0.0) + abs(x) * abs(c)
    return out


def assert_agree(fast: float, ket: FockKet, forms: list[LinearForm], abs_forms: list[dict]) -> None:
    """fast agrees with the engine's rate and the oracle's within 1e-15 * scale;
    abs_forms are the forms as abs_form gives them, before any cancellation."""
    engine = det.coincidence_rate(ket, *forms) if len(forms) == 2 else det.singles_rate(ket, *forms)
    exact = oracle.o_expectation(to_oracle(ket), [form_dict(form) for form in forms])
    abs_ket = oracle.from_amplitudes({occ: abs(a) for occ, a in ket.items()})
    bound = 1e-15 * max(1.0, 2.0 * oracle.o_expectation(abs_ket, abs_forms))
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


def assert_coincidence_agrees(src: ex.Source, t1: float, t2: float) -> None:
    abs_forms = [abs_form((math.cos(t), arm.v), (math.sin(t), arm.h)) for arm, t in ((src.arm1, t1), (src.arm2, t2))]
    assert_agree(ex.coincidence(src, t1, t2).value, src.ket, arm_forms(src, t1, t2), abs_forms)


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
        assert src.K is not None
        for t1 in angles:
            for t2 in angles:
                assert_coincidence_agrees(src, t1, t2)


def test_the_four_K_of_the_paper():
    k_e, k_u = math.sqrt(0.5), 0.5
    for src, want in [
        (ex.source("psi_e"), (0, k_e, -k_e, 0)),
        (ex.source("psi_u"), (0, k_u, -k_u, 0)),
        (ex.source("psi_e", split=True), (0, 0, 0, 0)),
        (ex.source("psi_u", split=True), (0.25, 0, 0, 0.25)),
    ]:
        assert [k for row in src.K for k in row] == pytest.approx(want, abs=1e-15)


def test_exact_zeros_stay_exact():
    angles = [0.0, -0.0, 1.2, -3.0, *(k * math.pi / 2 for k in range(-4, 5))]
    for kind in ("circular_pair", "psi_e", "psi_u"):
        src = ex.source(kind)
        assert all(ex.coincidence(src, t, t).value == 0 for t in angles), kind
    src = ex.source("psi_e", split=True)
    for t1 in angles:
        for t2 in angles:
            assert outcome(lambda: ex.coincidence(src, t1, t2).value) == (int, "0")


def test_coincidence_closed_form_is_nan_where_the_angle_difference_overflows():
    src = ex.source("circular_pair")
    assert_coincidence_agrees(src, 1e308, -1e308)
    result = ex.coincidence(src, 1e308, -1e308)
    assert result.value == pytest.approx(0.16331001973043988, abs=1e-15)
    assert math.isnan(result.closed_form) and math.isnan(result.abs_error())


def test_three_photon_ket_falls_back_to_the_engine_bit_for_bit():
    base = ex.source("psi_u")
    ket = FockKet({**dict(base.ket.items()), occupation({V1: 2, H1: 1}): 0.3})
    src = ex.Source(ket, base.arm1, base.arm2, base.peak, base.law)
    assert src.K is None
    for t1, t2 in [(0.0, 0.0), (0.3, 1.1), (-2.0, 0.7), (math.pi / 2, 1e308)]:
        got = outcome(lambda: ex.coincidence(src, t1, t2).value)
        assert got == outcome(lambda: det.coincidence_rate(ket, *arm_forms(src, t1, t2)))


def test_non_finite_K_falls_back_to_the_engine_bit_for_bit():
    src = ex.source("psi_u_prime", OVERFLOW_GEOMETRY)
    assert src.K is None
    outcomes = []
    for t1, t2 in [(0.0, 0.0), (0.3, 1.1), (math.pi / 2, 0.0), (0.0, 1e308)]:
        got = outcome(lambda: ex.coincidence(src, t1, t2).value)
        assert got == outcome(lambda: det.coincidence_rate(src.ket, *arm_forms(src, t1, t2)))
        outcomes.append(got)
    assert OverflowError in outcomes, "the overflowing geometry must reach the overflow"


def engine_point(src: ex.Source, t1: float, t2: float) -> ex.ScenarioResult:
    return ex.ScenarioResult("coincidence_rate", det.coincidence_rate(src.ket, *arm_forms(src, t1, t2)), 0.0)


def test_chsh_point_matches_engine(monkeypatch):
    rng = np.random.default_rng(5)
    angle_sets = [ex.CANONICAL_CHSH_ANGLES]
    angle_sets += [dict(zip(("a", "ap", "b", "bp"), map(float, rng.uniform(-4, 4, 4)))) for _ in range(4)]
    for kind in ("circular_pair", "psi_e", "psi_u", "psi_u_prime"):
        fast = [ex.chsh_S(ex.source(kind), **angles) for angles in angle_sets]
        with monkeypatch.context() as patch:
            patch.setattr(ex, "coincidence", engine_point)
            engine = [ex.chsh_S(ex.source(kind), **angles) for angles in angle_sets]
        assert fast == pytest.approx(engine, abs=1e-14)


@pytest.mark.parametrize("scanned", ["theta1", "theta2"])
def test_a_scan_runs_the_engine_only_to_build_K(monkeypatch, scanned):
    calls = [0]
    original = ex.apply_form

    def counted(ket, form):
        calls[0] += 1
        return original(ket, form)

    monkeypatch.setattr(ex, "apply_form", counted)
    fixed = "theta2" if scanned == "theta1" else "theta1"
    rows = evaluate(parse_scenario(f"experiment pdc\nstate psi_u\nangle {fixed} 10\nscan {scanned} 0 180 0.5\n"))
    assert len(rows) == 361 and calls[0] == 8  # two applies for each of K's four entries


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
    assert src.K is not None
    assert_coincidence_agrees(src, t1, t2)


@PROPERTY
@given(kets(photons=(1, 2, 3)), forms, forms, coeff, coeff)
def test_gram_form_agrees_with_engine_and_oracle_on_random_kets_and_forms(ket, f, g, a, b):
    # A one-point grid: beam 1 gives a and beam 2 gives b there.
    beams = [det.BeamProfile(tilt=0.0, phase_offset=math.atan2(z.imag, z.real), amplitude=abs(z)) for z in (a, b)]
    [[cell]] = det.intensity_map(ket, [f, g], [beam.sample(det.ScanGrid(xs=(0.0,))) for beam in beams])
    a, b = (beam.value(0.0, 0.0) for beam in beams)
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


def gram_cell(ket: FockKet, forms_: list[LinearForm], a: complex, b: complex) -> float:
    """The Gram form |a|^2 <u|u> + |b|^2 <w|w> + 2 Re(conj(a) b <u|w>) of u, w = forms_ |ket>, one cell at a time."""
    u, w = (apply_form(ket, form) for form in forms_)
    return abs(a) ** 2 * norm2(u) + abs(b) ** 2 * norm2(w) + 2.0 * (a.conjugate() * b * inner(u, w)).real


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
                a, b = beam1.value(x, y), beam2.value(x, y)
                want = gram_cell(ket, forms_, a, b)
                assert cell == want or (math.isnan(cell) and math.isnan(want)), (x, y, cell, want)
                if math.isnan(want):
                    nan_cells += 1
                    continue
                form = forms_[0].scale(a).plus(forms_[1].scale(b))
                assert_agree(cell, ket, [form], [abs_form((a, forms_[0]), (b, forms_[1]))])
    assert nan_cells == 1
