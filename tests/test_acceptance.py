"""Acceptance gate: every package-level guarantee at its pinned tolerance.

Each test prints one `[criterion NN] name: PASS|FAIL` line (visible under
pytest -s or in captured output on failure).
"""

from __future__ import annotations

import math

import numpy as np

import oracle
from biphoton import experiments as ex
from biphoton import fock as fk
from biphoton.cli import main
from biphoton.modes import H2, V1
from support import corrupt_selfcheck_row, run_randomized_rate_equivalence, to_oracle

SQRT1_2 = math.sqrt(0.5)
SQRT2 = math.sqrt(2.0)
GRID_73 = np.linspace(0.0, math.pi, 73)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed {detail}"


def test_criterion_01_sine_law_quarter():
    src = ex.source("circular_pair")
    worst = max(ex.coincidence(src, 0.0, d).abs_error() for d in GRID_73)
    report(1, "split-beam coincidence equals sin^2/4 on 73-point grid", worst <= 1e-12, f"max_err={worst:.3e}")


def test_criterion_02_conditional_rate_half():
    rng = np.random.default_rng(2)
    src = ex.source("circular_pair")
    worst = max(abs(ex.fig1_conditional_check(src, float(t)) - 0.5) for t in rng.uniform(-math.pi, math.pi, 16))
    report(2, "post-detection singles rate is 0.5 for 16 random angles", worst <= 1e-12, f"max_dev={worst:.3e}")


def test_criterion_03_pdc_shapes_and_constants():
    src_e, src_u = ex.source("psi_e"), ex.source("psi_u")
    curve_e = np.array([ex.coincidence(src_e, 0.0, d).value for d in GRID_73])
    curve_u = np.array([ex.coincidence(src_u, 0.0, d).value for d in GRID_73])
    shape_dev = float(np.max(np.abs(curve_e / curve_e.max() - curve_u / curve_u.max())))

    # peak constants at analyzer angles (0, pi/2), confirmed through the
    # independent polynomial oracle
    peak_e = oracle.o_expectation(
        to_oracle(fk.named_state("psi_e")),
        [{V1: 1.0}, {H2: 1.0}],
    )
    b1 = {V1: SQRT1_2, H2: SQRT1_2}
    half_b1 = {m: SQRT1_2 * c for m, c in b1.items()}
    peak_u = oracle.o_expectation(to_oracle(fk.named_state("psi_u")), [half_b1, half_b1])
    ok = (
        shape_dev <= 1e-9
        and abs(peak_e - 0.5) <= 1e-12
        and abs(curve_e.max() - peak_e) <= 1e-12
        and abs(peak_u - 0.25) <= 1e-12
        and abs(curve_u.max() - peak_u) <= 1e-12
    )
    report(3, "pair-source curves share one shape with peaks 1/2 and 1/4", ok, f"shape_dev={shape_dev:.3e}")


def test_criterion_04_cascade_cosine_law():
    src = ex.source("psi_u_prime")
    worst = max(ex.coincidence(src, 0.0, d).abs_error() for d in GRID_73)
    report(4, "cascade coincidence equals cos^2/2 on 73-point grid", worst <= 1e-12, f"max_err={worst:.3e}")


def test_criterion_05_split_channel_discriminator():
    src_u, src_e = ex.source("psi_u", split=True), ex.source("psi_e", split=True)
    worst_u = max(ex.coincidence(src_u, d, 0.0).abs_error() for d in GRID_73)
    worst_e = max(ex.coincidence(src_e, d, 0.0).value for d in GRID_73)
    rng = np.random.default_rng(5)
    for t3, t4 in rng.uniform(-math.pi, math.pi, size=(8, 2)):
        worst_u = max(worst_u, ex.coincidence(src_u, float(t3), float(t4)).abs_error())
        worst_e = max(worst_e, ex.coincidence(src_e, float(t3), float(t4)).value)
    ok = worst_u <= 1e-12 and worst_e <= 1e-12
    report(5, "split channel gives cos^2/16 vs identically zero", ok, f"err_u={worst_u:.3e} rate_e={worst_e:.3e}")


def test_criterion_06_visibility_dichotomy():
    bright = ex.fig3_visibility("psi_u").value
    dark = ex.fig3_visibility("psi_e").value
    ok = bright >= 0.999 and dark <= 0.001
    report(6, "overlap visibility 1 vs 0 on the default line scan", ok, f"v_u={bright:.6f} v_e={dark:.2e}")


def test_criterion_07_state_decomposition():
    psi_e, psi_u = fk.named_state("psi_e"), fk.named_state("psi_u")
    overlap = fk.inner(psi_e, psi_u)
    remainder = fk.norm2(fk.add(psi_u, psi_e, 1.0, -SQRT1_2))
    ok = abs(overlap - SQRT1_2) <= 1e-12 and abs(remainder - 0.5) <= 1e-12
    report(7, "un-entangled state = entangled part/sqrt2 + doubles of weight 1/2", ok)


def test_criterion_08_factorization():
    factor_a, factor_b = fk.pair_factor_forms()
    rebuilt = fk.apply_form_dagger(fk.apply_form_dagger(fk.vacuum(), factor_b), factor_a)
    amp_diff = fk.max_amplitude_diff(rebuilt, fk.named_state("psi_u"))
    commutator = abs(fk.form_commutator(factor_a.conjugated(), factor_b.conjugated()))
    ok = amp_diff <= 1e-12 and commutator <= 1e-14
    report(8, "pair state factors into two commuting creations", ok, f"amp_diff={amp_diff:.3e}")


def test_criterion_09_chsh_saturation():
    angles = ex.CANONICAL_CHSH_ANGLES
    values = {kind: abs(ex.chsh_S(ex.source(kind), **angles)) for kind in ("circular_pair", "psi_e", "psi_u")}
    bound = 2.0 * SQRT2
    ok = all(abs(v - bound) <= 1e-9 for v in values.values())
    ok = ok and abs(values["psi_e"] - values["psi_u"]) <= 1e-9
    detail = str({k: f"{v:.10f}" for k, v in values.items()})
    report(9, "|S| = 2*sqrt2 at canonical angles for all three pair states", ok, detail)


def test_criterion_10_same_channel_probabilities():
    p_u = [row.value for row in ex.same_channel_table("psi_u")[:2]]
    p_e = [row.value for row in ex.same_channel_table("psi_e")[:2]]
    both1, both2, split = (row.value for row in ex.same_channel_table("circular_pair"))
    total = both1 + both2 + split
    # oracle cross-check of the circular-pair outcome probabilities
    ref = to_oracle(fk.named_state("circular_pair"))
    ch1, ch2 = ex.fig1_channel_fields()
    parts = {
        "both1": sum(
            oracle.o_expectation(ref, [dict(f.items()), dict(g.items())])
            for f in (ch1.v, ch1.h)
            for g in (ch1.v, ch1.h)
        )
        / 2.0,
        "both2": sum(
            oracle.o_expectation(ref, [dict(f.items()), dict(g.items())])
            for f in (ch2.v, ch2.h)
            for g in (ch2.v, ch2.h)
        )
        / 2.0,
        "split": sum(
            oracle.o_expectation(ref, [dict(f.items()), dict(g.items())])
            for f in (ch1.v, ch1.h)
            for g in (ch2.v, ch2.h)
        ),
    }
    ok = (
        all(abs(p - 0.25) <= 1e-12 for p in p_u)
        and all(p <= 1e-12 for p in p_e)
        and abs(total - 1.0) <= 1e-12
        and abs(parts["both1"] - 0.25) <= 1e-12
        and abs(parts["both2"] - 0.25) <= 1e-12
        and abs(parts["split"] - 0.5) <= 1e-12
    )
    report(10, "same-channel probabilities 1/4, 0, and completeness to 1", ok)


def test_criterion_11_engine_vs_oracle_randomized():
    worst = run_randomized_rate_equivalence(200, seed=11)
    report(11, "200 randomized two-photon rates match the naive oracle", worst <= 1e-12, f"max_err={worst:.3e}")


def test_criterion_12_cli_selfcheck(monkeypatch, capsys):
    code_ok = main(["selfcheck"])
    out = capsys.readouterr().out
    emitted = out.startswith("param,value,closed_form,abs_error") and "chsh_abs_psi_u" in out
    corrupt_selfcheck_row(monkeypatch, "pdc_peak_psi_e")
    code_bad = main(["selfcheck"])
    capsys.readouterr()
    ok = code_ok == 0 and emitted and code_bad == 2
    with capsys.disabled():
        report(12, "CLI selfcheck exits 0; corrupted reference exits 2", ok)
