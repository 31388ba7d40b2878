"""The compiled replay kernel (fock.ReplayKernel) against the general engine
and the oracle.

experiments.coincidence and detection.intensity_map run on the kernel;
apply_form, singles_rate and coincidence_rate are the reference.  A kernel
result must equal the engine's bit for bit, with the same type and the same
exception, and agree with tests/oracle.py within 1e-12.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracle
from biphoton import detection as det
from biphoton import experiments as ex
from biphoton import optics as op
from biphoton.fock import ReplayKernel, apply_form, combination_forms, named_state, norm2, unit_form
from biphoton.modes import H1, V2
from biphoton.scenario import evaluate, parse_scenario
from support import form_dict, random_form, random_ket, to_oracle

#: The overflowing geometry of the cascade: its rates are inf or overflow.
OVERFLOW_GEOMETRY = ex.CascadeGeometry(1e155 + 1e155j, 1 + 0j, 1 + 0j, 1e155 + 0j)


def outcome(fn):
    """Type and repr of fn's result, or the type of the exception it raises."""
    try:
        value = fn()
    except (OverflowError, ValueError) as err:
        return type(err)
    return type(value), repr(value)


def engine_rate(src: ex.Source, t1: float, t2: float) -> float:
    return det.coincidence_rate(src.ket, op.polarizer(src.arm1, t1), op.polarizer(src.arm2, t2))


def all_sources(rng: np.random.Generator) -> list[ex.Source]:
    """The six sources of the experiments, the cascade on random complex
    geometries and on the overflowing one too."""
    sources = [ex.source(kind) for kind in ("circular_pair", "psi_e", "psi_u", "psi_u_prime")]
    sources += [ex.source(kind, split=True) for kind in ("psi_e", "psi_u")]
    for _ in range(4):
        coeffs = (complex(*map(float, rng.normal(size=2))) for _ in range(4))
        sources.append(ex.source("psi_u_prime", ex.CascadeGeometry(*coeffs)))
    sources.append(ex.source("psi_u_prime", OVERFLOW_GEOMETRY))
    return sources


def test_coincidence_matches_engine_bit_for_bit_and_oracle():
    rng = np.random.default_rng(909)
    angles = [0.0, -0.0, 1e308, -1e308, *(k * math.pi / 2 for k in range(-4, 5))]
    angles += [float(t) for t in rng.uniform(-7.0, 7.0, 6)]
    raised = 0
    for src in all_sources(rng):
        ref = to_oracle(src.ket)
        for t1 in angles:  # t1 outer: each row after the first hits the arm-1 memo
            for t2 in angles:
                got = outcome(lambda: ex.coincidence(src, t1, t2).value)
                want = outcome(lambda: engine_rate(src, t1, t2))
                if want is not OverflowError and math.isinf(t1 - t2):
                    want = ValueError  # from the closed form's law(inf), after the rate
                assert got == want, (src, t1, t2)
                if got is OverflowError:
                    raised += 1
                    continue
                forms = [form_dict(op.polarizer(src.arm1, t1)), form_dict(op.polarizer(src.arm2, t2))]
                exact = oracle.o_expectation(ref, forms)
                if got is not ValueError and math.isfinite(exact):
                    assert abs(float(got[1]) - exact) <= 1e-12, (src, t1, t2)
    assert raised, "the overflowing geometry must reach the overflow"
    assert outcome(lambda: ex.coincidence(ex.source("psi_e", split=True), 0.3, 1.1).value) == (int, "0")


def test_kernel_replays_the_engine_on_random_kets_and_forms():
    # Three-photon kets with many terms make the engine's summation order matter.
    rng = np.random.default_rng(77)
    for _ in range(300):
        ket = random_ket(rng, total=int(rng.integers(2, 4)), n_terms=int(rng.integers(1, 9)))
        pairs = [(random_form(rng), random_form(rng)) for _ in range(2)]
        kernel = ReplayKernel(ket, pairs)
        x1, y1, x2, y2 = (complex(*map(float, rng.normal(size=2))) for _ in range(4))
        form1 = pairs[0][0].scale(x1).plus(pairs[0][1].scale(y1))
        form2 = pairs[1][0].scale(x2).plus(pairs[1][1].scale(y2))
        once = kernel.apply(kernel.start, kernel.form(0, x1, y1))
        assert repr(kernel.norm2(once)) == repr(norm2(apply_form(ket, form1)))
        twice = kernel.norm2(kernel.apply(once, kernel.form(1, x2, y2)))
        assert repr(twice) == repr(norm2(apply_form(apply_form(ket, form1), form2)))


def test_chsh_point_matches_engine(monkeypatch):
    rng = np.random.default_rng(5)
    settings = [ex.CANONICAL_CHSH_ANGLES]
    settings += [dict(zip(("a", "ap", "b", "bp"), map(float, rng.uniform(-4, 4, 4)))) for _ in range(4)]
    for kind in ("circular_pair", "psi_e", "psi_u", "psi_u_prime"):
        kernel_values = [repr(ex.chsh_S(ex.source(kind), **angles)) for angles in settings]
        with monkeypatch.context() as patch:
            patch.setattr(ex, "coincidence", lambda src, t1, t2: ex.ScenarioResult("", engine_rate(src, t1, t2), 0.0))
            assert [repr(ex.chsh_S(ex.source(kind), **angles)) for angles in settings] == kernel_values


def count_arm1_forms(monkeypatch) -> list[int]:
    """Patch ReplayKernel.form to count how often arm 1's polarizer is built."""
    calls = [0]
    original = ReplayKernel.form

    def counted(kernel, pair, x, y):
        calls[0] += pair == 0
        return original(kernel, pair, x, y)

    monkeypatch.setattr(ReplayKernel, "form", counted)
    return calls


def test_arm1_is_computed_once_per_scan_of_arm2(monkeypatch):
    calls = count_arm1_forms(monkeypatch)
    rows = evaluate(parse_scenario("experiment pdc\nstate psi_u\nangle theta1 10\nscan theta2 0 180 0.5\n"))
    assert len(rows) == 361 and calls[0] == 1


def test_chsh_point_computes_each_arm1_angle_once(monkeypatch):
    calls = count_arm1_forms(monkeypatch)
    ex.chsh_S(ex.source("psi_u"), **ex.CANONICAL_CHSH_ANGLES)
    assert calls[0] == 4  # a, a + pi/2, ap, ap + pi/2; 16 coincidences


def test_arm1_memo_is_bounded():
    src = ex.source("circular_pair")
    for k in range(100_000):
        ex.coincidence(src, k * 1e-3, 0.25)
    assert len(src.arm1_states) <= ex.ARM1_MEMO


def random_beam(rng: np.random.Generator) -> det.BeamProfile:
    kind = str(rng.choice(det.BEAM_KINDS))
    return det.BeamProfile(
        kind=kind,
        tilt=float(rng.uniform(-20.0, 20.0)),
        width=float(rng.uniform(0.2, 2.0)) if kind == "gaussian" else None,
        phase_offset=float(rng.uniform(-7.0, 7.0)),
        amplitude=float(rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)])),
    )


@pytest.mark.parametrize("kind", ["psi_e", "psi_u"])
def test_intensity_map_matches_per_cell_singles_rate(kind):
    rng = np.random.default_rng(33 if kind == "psi_e" else 34)
    forms = [unit_form(H1), unit_form(V2)] if kind == "psi_e" else [combination_forms()[1]] * 2
    ket = named_state(kind)
    for _ in range(40):
        beam1, beam2 = random_beam(rng), random_beam(rng)
        grid = det.ScanGrid(
            xs=tuple(map(float, rng.uniform(-2.0, 2.0, int(rng.integers(1, 8))))),
            ys=tuple(map(float, rng.uniform(-2.0, 2.0, int(rng.integers(1, 4))))),
        )
        engine = tuple(
            tuple(det.singles_rate(ket, forms[0].scale(beam1.value(x, y)).plus(forms[1].scale(beam2.value(x, y))))
                  for x in grid.xs)
            for y in grid.ys
        )
        assert repr(det.intensity_map(ket, forms, (beam1, beam2), grid)) == repr(engine)
