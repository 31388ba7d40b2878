"""Shared generators and oracle-comparison helpers for randomized checks, and
the environment of a child interpreter."""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from pathlib import Path

import numpy as np

import oracle
import biphoton
from biphoton.detection import AllDark, singles_rate
from biphoton.experiments import CascadeGeometry, ScenarioResult, Source
from biphoton.fock import EPS_PRUNE, EPS_ZERO, FockKet, LinearForm, apply_form, inner, norm2, occupation, unit_form
from biphoton.modes import W1H, W1V, W2H, W2V, ModeId
from biphoton.optics import ChannelField
from biphoton.selfcheck import selfcheck_rows

EIGHT_MODES = tuple(ModeId(ch, pol) for ch in (1, 2, 3, 4) for pol in ("V", "H"))


def random_form(rng: np.random.Generator, modes=EIGHT_MODES, n_terms: int | None = None) -> LinearForm:
    if n_terms is None:
        n_terms = int(rng.integers(1, len(modes) + 1))
    picked = rng.choice(len(modes), size=n_terms, replace=False)
    return LinearForm({modes[i]: complex(rng.normal(), rng.normal()) for i in picked})


def random_ket(rng: np.random.Generator, modes=EIGHT_MODES, total: int = 2, n_terms: int = 4) -> FockKet:
    """Random normalized ket with exactly `total` photons spread over `modes`."""
    amp: dict = {}
    for _ in range(n_terms):
        counts: dict = {}
        for _ in range(total):
            mode = modes[int(rng.integers(len(modes)))]
            counts[mode] = counts.get(mode, 0) + 1
        occ = occupation(counts)
        amp[occ] = amp.get(occ, 0j) + complex(rng.normal(), rng.normal())
    return normalized(FockKet(amp))


def normalized(ket: FockKet) -> FockKet:
    """The ket divided by its norm, as a multiplication by 1 / sqrt(norm2)."""
    factor = 1.0 / math.sqrt(norm2(ket))
    return FockKet({occ: a * factor for occ, a in ket.items()})


def coincidence_rate(ket: FockKet, form1: LinearForm, form2: LinearForm) -> float:
    """Two-detector coincidence rate <L1^dag L2^dag L2 L1> by the engine,
    symmetric in the forms: the reference for the pair matrices of
    experiments, which the package reads its coincidences off instead."""
    return norm2(apply_form(apply_form(ket, form1), form2))


def gram_triple(ket: FockKet, forms) -> tuple[float, float, complex]:
    """(<u|u>, <w|w>, <u|w>) of u, w = forms |ket> by the engine: the triple
    detection.intensity_map reads, which fig3 keeps once per state."""
    u, w = (apply_form(ket, form) for form in forms)
    return norm2(u), norm2(w), inner(u, w)


def map_cells(factored) -> tuple[tuple[float, ...], ...]:
    """Every cell of a factored map (detection.intensity_map), row by row:
    r1 p + r2 q (+ r12 c) of each row's and each column's factors, left to
    right, as the package evaluated every cell before its visibility skipped
    rows."""
    rows, columns = factored
    if rows and len(rows[0]) == 2:
        return tuple(tuple([r1 * p + r2 * q for p, q in columns]) for r1, r2 in rows)
    return tuple(tuple([r1 * p + r2 * q + r12 * c for p, q, c in columns]) for r1, r2, r12 in rows)


def reference_visibility(values) -> float:
    """Fringe visibility (max - min) / (max + min) of a map of cells, every
    cell walked; NaN if any cell is NaN: the reference that
    detection.visibility of the factored map must match by repr, or by
    exception type and message."""
    cells = list(itertools.chain.from_iterable(values))
    if len(cells) < 2:
        raise ValueError("visibility needs a grid of at least 2 points")
    # Python's max/min skip a NaN unless it comes first.
    if any(map(math.isnan, cells)):
        return math.nan
    top, bottom = max(cells), min(cells)
    if top + bottom <= EPS_ZERO:
        raise AllDark("intensity map is identically dark")
    return (top - bottom) / (top + bottom)


def cascade_channel_fields_chain(geom: CascadeGeometry) -> tuple[ChannelField, ChannelField]:
    """The cascade's two-color channel fields as a chain of unit forms, each
    scaled by its geometry coefficient and summed: channel i carries
    g[i][1] w1 + g[i][2] w2.  Behind color_filtered, the reference that
    experiments.cascade_channel_fields, which writes the filtered forms at
    once, must match by repr in K and in every coincidence row."""
    w1_v, w1_h = unit_form(W1V), unit_form(W1H)
    w2_v, w2_h = unit_form(W2V), unit_form(W2H)
    ch1 = ChannelField(
        w1_v.scale(geom.g11).plus(w2_v.scale(geom.g12)),
        w1_h.scale(geom.g11).plus(w2_h.scale(geom.g12)),
    )
    ch2 = ChannelField(
        w1_v.scale(geom.g21).plus(w2_v.scale(geom.g22)),
        w1_h.scale(geom.g21).plus(w2_h.scale(geom.g22)),
    )
    return ch1, ch2


def color_filtered(channels: tuple[ChannelField, ChannelField]) -> tuple[ChannelField, ChannelField]:
    """The color filters in front of the cascade's analyzers: channel 1 keeps
    its w1 modes alone and channel 2 its w2 modes, each form rebuilt through
    LinearForm."""

    def keep(field: ChannelField, freq: str) -> ChannelField:
        return ChannelField(*(LinearForm({m: c for m, c in form.items() if m.freq == freq}) for form in field))

    return keep(channels[0], "w1"), keep(channels[1], "w2")


def coincidence_row(src: Source, t1: float, t2: float) -> ScenarioResult:
    """The coincidence row of src at analyzer angles t1, t2, one point at a
    time and one float operation at a time: the amplitude u0 c2 + u1 s2 of
    the row u = c1^T K (Source.K) and c2 = (cos t2, sin t2), its square amp
    ** 2 (OverflowError past the float range) or the integer 0 where amp <=
    EPS_PRUNE, the closed form peak * law(t1 - t2) ** 2 by angle addition,
    and the tolerance 1e-9 * peak, at least EPS_PRUNE ** 2.  The reference
    that experiments.coincidence_rows must match by repr at every point."""
    (kvv, kvh), (khv, khh) = src.K
    c1, s1, c2, s2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
    u0, u1 = c1 * kvv + s1 * khv, c1 * kvh + s1 * khh
    amp = abs(u0 * c2 + u1 * s2)
    value = 0 if amp <= EPS_PRUNE else amp ** 2
    law = s1 * c2 - c1 * s2 if src.law is math.sin else c1 * c2 + s1 * s2
    return ScenarioResult("coincidence_rate", value, src.peak * law ** 2, max(1e-9 * src.peak, EPS_PRUNE ** 2))


def corrupt_selfcheck_row(monkeypatch, observable: str) -> None:
    """Have the CLI's selfcheck report one row with its closed form shifted by 1e-3."""
    rows = [
        row._replace(closed_form=row.closed_form + 1e-3) if row.observable == observable else row
        for row in selfcheck_rows()
    ]
    assert observable in [row.observable for row in rows]
    monkeypatch.setattr("biphoton.selfcheck.selfcheck_rows", lambda: rows)


def oracle_amplitudes(items) -> dict:
    """Engine (occupation, amplitude) items keyed as the oracle keys them, by
    (mode, count) pairs."""
    return {oracle.canon(Counter(occ)): a for occ, a in items}


def to_oracle(ket: FockKet) -> oracle.State:
    return oracle.from_amplitudes(oracle_amplitudes(ket.items()))


def form_dict(form: LinearForm) -> dict:
    return dict(form.items())


def run_randomized_rate_equivalence(n_trials: int, seed: int = 200) -> float:
    """Worst engine-vs-oracle disagreement over random 2-photon rates."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        ket = random_ket(rng, n_terms=int(rng.integers(1, 6)))
        ref = to_oracle(ket)
        f1, f2 = random_form(rng), random_form(rng)
        d1, d2 = form_dict(f1), form_dict(f2)
        worst = max(worst, abs(singles_rate(ket, f1) - oracle.o_expectation(ref, [d1])))
        worst = max(worst, abs(coincidence_rate(ket, f1, f2) - oracle.o_expectation(ref, [d1, d2])))
    return worst


def child_env() -> dict[str, str]:
    """os.environ with this process's biphoton first on PYTHONPATH, so that a
    child imports the same package, also when the package is on sys.path only
    through pytest's own pythonpath setting."""
    src = str(Path(biphoton.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
