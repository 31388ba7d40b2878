"""Shared generators and oracle-comparison helpers for randomized checks, and
the environment of a child interpreter."""

from __future__ import annotations

import math
import os
from collections import Counter
from pathlib import Path

import numpy as np

import oracle
import biphoton
from biphoton.detection import singles_rate
from biphoton.fock import FockKet, LinearForm, apply_form, norm2, occupation
from biphoton.modes import ModeId
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
