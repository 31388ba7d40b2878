"""Shared generators and oracle-comparison helpers for randomized checks, and
the environment of a child interpreter."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

import oracle
import biphoton
from biphoton.detection import coincidence_rate, singles_rate
from biphoton.fock import FockKet, LinearForm, normalize, occupation
from biphoton.modes import pol_mode

EIGHT_MODES = tuple(pol_mode(ch, pol) for ch in (1, 2, 3, 4) for pol in ("V", "H"))


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
    return normalize(FockKet(amp))


def to_oracle(ket: FockKet) -> oracle.State:
    return oracle.from_amplitudes(dict(ket.items()))


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
