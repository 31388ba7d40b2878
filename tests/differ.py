"""Compare the package at a git revision with the working tree, input by input.

    python tests/differ.py [REV] [--expect stderr]

REV defaults to HEAD; the working tree's src/biphoton is compared with REV's,
which revision.py loads as `biphoton_parent`.  The inputs are seeded
(SEED, TEXTS scenario texts):

    parse      scenario texts of every experiment and state (angles up to
               1e300 degrees, scans of 1-200 points, cascade geometries from
               1e-8 to past the float range, fig3 beams of any width and
               tilt) and malformed variants of them (repeats, missing and
               extra values, bad numbers, unknown keys, misplaced
               directives), by parse_scenario's spec repr, or its exception
               type and message
    evaluate   the texts that parse at both, by the repr of evaluate's rows
               and their render_csv and render_json text, or the exception
    selfcheck  repr(selfcheck_rows())
    cli        cli.main's exit code, stdout and stderr on scan and chsh argv
               made of the texts, run of a sample of them, the README
               examples, the golden cases and ODD_ARGV
    api        CALLS seeded calls with values no scenario text gives, by the
               result's repr, or the exception: BeamProfile (bad kinds,
               widths, amplitudes, tilts and offsets up to +-1e308, inf and
               NaN), ScanGrid (empty, one-point, +-0.0, +-inf and NaN
               coordinates, and axes of 13-64 points), fig3_visibility over
               such beams and grids, gaussian ones included, and
               CascadeGeometry of _complex parts and inf and NaN ones, with
               the cascade source's K, T, same_channel and coincidence rows
               over CASCADE_ANGLES (0, +-1e300 among them) at each valid
               geometry; then, unseeded, each named state with split False
               and True through source(), by its arms' items, K, T,
               same_channel, those rows and, for circular_pair,
               fig1_conditional_check at each of CASCADE_ANGLES

It prints the count of inputs and differences per category and each
difference, and exits 1 on any difference that --expect does not admit.
`--expect stderr` admits a difference in stderr alone (same exit code and
stdout) and in an exception's message alone (same type).  It writes nothing
under src/ or tests/ and removes its temporary trees.  Pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import math
import random
import sys
import tempfile
from collections.abc import Callable, Iterator
from pathlib import Path
from types import ModuleType

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import biphoton.cli  # noqa: E402  (after the path)
import biphoton.detection  # noqa: E402
import biphoton.scenario  # noqa: E402
import biphoton.selfcheck  # noqa: E402
from biphoton.experiments import EXPERIMENTS  # noqa: E402
from revision import revision_package  # noqa: E402

#: An input's outcome: ("ok", value) or ("raise", exception type name, message).
Outcome = tuple
#: A difference: category, input, the revision's outcome, the tree's, and whether --expect admits it.
Difference = tuple[str, object, Outcome, Outcome, bool]

#: The corpus: its seed, its count of scenario texts, half of them malformed, and of api calls.
SEED, TEXTS, CALLS = 12, 4000, 2000

JUNK = ("x", "nan", "inf", "-inf", "1e999", "-", "1+", "i", "3", "0", "-0.0", "1e-320", "plane", "psi_u", "theta1")


def outcome(run: Callable[[], object]) -> Outcome:
    try:
        return ("ok", run())
    except Exception as err:  # the type and message are what is compared
        return ("raise", type(err).__name__, str(err))


def cli_outcome(main: Callable[[list[str]], int], argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        found = outcome(lambda: main(list(argv)))
    return ("ok", (found[1], out.getvalue(), err.getvalue())) if found[0] == "ok" else found


# --- the corpus ---------------------------------------------------------------


def _degrees(rng: random.Random) -> str:
    return repr(rng.choice([
        round(rng.uniform(0.0, 180.0), 3), rng.uniform(-360.0, 360.0), rng.uniform(-1e300, 1e300),
        0.0, -0.0, 90.0, 1e300, -1e300, 1e-300, 1e15,
    ]))


def _complex_parts(rng: random.Random) -> tuple[float, float]:
    scale = rng.choice([1e-8, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e76, 1.19e77, 1.3e77, 1e155, 1e200])
    re, im = (rng.choice([0.0, -0.0, scale, -scale, rng.uniform(-scale, scale)]) for _ in range(2))
    return re, im


def _complex(rng: random.Random) -> str:
    re, im = _complex_parts(rng)
    return f"{re!r}{'+' if math.copysign(1.0, im) > 0 else '-'}{abs(im)!r}i"


def _beam(rng: random.Random, index: str) -> str:
    kind = rng.choice(["plane_wave", "plane", "gaussian"])
    tilt = rng.choice([0.0, 15.707963267948966, -15.707963267948966, 1e10, 1e308, -1e308, rng.uniform(-20.0, 20.0)])
    values = [index, kind, repr(tilt)]
    if kind == "gaussian":
        values.append(rng.choice(["inf", "1e-150", "1e-300", "0", "-1", repr(rng.uniform(0.05, 2.0))]))
    if rng.random() < 0.6:
        values.append(repr(rng.choice([0.0, math.pi, 1e308, rng.uniform(-10.0, 10.0)])))
    return "beam " + " ".join(values)


def scenario_text(rng: random.Random) -> str:
    """A well-formed scenario: any experiment and state, its lines in any order."""
    experiment = rng.choice(list(EXPERIMENTS))
    record = EXPERIMENTS[experiment]
    lines = [f"experiment {experiment}"]
    if rng.random() < 0.8:
        lines.append(f"state {rng.choice(record.states)}")
    names = list(record.angles)
    scanned = rng.choice(names) if names and rng.random() < 0.5 else None
    lines += [f"angle {name} {_degrees(rng)}" for name in names if name != scanned and rng.random() < 0.7]
    if scanned:
        start, step = round(rng.uniform(-180.0, 180.0), 3), rng.choice([0.25, 1.0, 2.5, 7.5, 45.0])
        lines.append(f"scan {scanned} {start!r} {start + (rng.randint(1, 200) - 1) * step!r} {step!r}")
    if experiment == "cascade" and rng.random() < 0.7:
        lines.append("geometry " + " ".join(_complex(rng) for _ in range(4)))
    if experiment == "fig3":
        lines += [_beam(rng, index) for index in "12" if rng.random() < 0.7]
    if rng.random() < 0.3:
        lines.append(f"output {rng.choice(['csv', 'json'])}")
    rng.shuffle(lines)
    if rng.random() < 0.3:
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# comment", "   "]))
    return "\n".join(lines) + "\n"


def malformed(rng: random.Random, text: str) -> str:
    """The text with one or two faults: a repeat (with bad values or not), a
    value dropped, added or replaced by junk, an unknown or misplaced line."""
    lines = [line for line in text.splitlines() if line.split()]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(lines))
        words = lines[i].split()
        fault = rng.randrange(7)
        if fault == 0:
            lines.insert(rng.randint(i + 1, len(lines)), lines[i])
        elif fault == 1 and len(words) > 1:
            del words[rng.randrange(1, len(words))]
        elif fault == 2:
            words.append(rng.choice(JUNK))
        elif fault == 3 and len(words) > 1:
            words[rng.randrange(1, len(words))] = rng.choice(JUNK)
        elif fault == 4:
            copy = words[:]
            copy[rng.randrange(len(copy))] = rng.choice(JUNK)
            lines.insert(rng.randint(i + 1, len(lines)), " ".join(copy))
        elif fault == 5:
            lines.insert(i, rng.choice(["laser 1", "beam 1 plane 0", "geometry 1 1 1 1", "scan theta9 0 1 1", "state"]))
        else:
            words = [words[0]]
        if fault != 0 and fault != 4 and fault != 5:
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def flag_argv(text: str) -> list[str]:
    """scan argv with the text's directives as flags (output as --format), or
    chsh argv with a chsh text's state and angles as its own flags."""
    items = [line.split() for line in text.splitlines() if line.split() and not line.startswith("#")]
    if ["experiment", "chsh"] in items and all(words[0] in ("experiment", "state", "angle") for words in items):
        argv = ["chsh"]
        for key, *values in items:
            if key == "state":
                argv += ["--state", *values]
            elif key == "angle" and values:
                argv += [f"--{values[0]}", *values[1:]]
        return argv
    argv = ["scan"]
    for key, *values in items:
        argv += ["--format" if key == "output" else f"--{key}", *values]
    return argv


def texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    good = [scenario_text(rng) for _ in range(count // 2)]
    return good + [malformed(rng, rng.choice(good)) for _ in range(count - len(good))]


#: BeamProfile's and ScanGrid's values; valid beams take only WIDTHS[5:] as a gaussian's width and AMPLITUDES[2:].
ANGLES = (0.0, -0.0, 15.707963267948966, -15.707963267948966, 1e10, 1e308, -1e308, math.inf, -math.inf, math.nan)
WIDTHS = (None, 0, -1, 1e-200, math.nan, 1e-150, 0.5, math.inf)
AMPLITUDES = (-1, math.nan, 0.0, -0.0, 1e-300, 2.5, math.inf)
COORDINATES = (0.0, -0.0, 0.5, -1.0, math.inf, -math.inf, math.nan)


def _beam_args(rng: random.Random, valid: bool) -> tuple:
    kind = rng.choice(["plane_wave", "gaussian"] if valid else ["plane_wave", "gaussian", "plane", "bessel"])
    angles = [rng.choice([*ANGLES, rng.uniform(-1e308, 1e308)]) if rng.random() < 0.4 else rng.uniform(-20.0, 20.0)
              for _ in range(2)]
    widths = WIDTHS[5:] if valid and kind == "gaussian" else WIDTHS
    return kind, angles[0], rng.choice(widths), angles[1], rng.choice(AMPLITUDES[2:] if valid else AMPLITUDES)


def _grid_args(rng: random.Random) -> tuple:
    """ScanGrid's xs, or xs and ys: mostly finite, any axis empty, one point, or +-0.0, +-inf and NaN; a
    fifth of the axes have 13-64 points, evenly spaced or not, so that a map has rows for visibility to skip."""
    def axis() -> tuple[float, ...]:
        if rng.random() < 0.2:
            count, span = rng.randint(13, 64), rng.uniform(0.1, 2.0)
            if rng.random() < 0.5:
                return tuple(-span + 2.0 * span * i / (count - 1) for i in range(count))
            return tuple(rng.uniform(-span, span) for _ in range(count))
        values = COORDINATES if rng.random() < 0.3 else (rng.uniform(-2.0, 2.0),)
        return tuple(rng.choice([*values, rng.uniform(-2.0, 2.0)]) for _ in range(rng.choice([0, 1, 2, 3, 5, 8])))

    return (axis(),) if rng.random() < 0.3 else (axis(), axis())


def _geometry_args(rng: random.Random) -> tuple[complex, ...]:
    parts = [complex(*_complex_parts(rng)) for _ in range(4)]
    if rng.random() < 0.2:
        parts[rng.randrange(4)] = complex(rng.choice([math.inf, -math.inf, math.nan]), rng.choice([0.0, math.nan]))
    return tuple(parts)


def api_calls(seed: int, count: int) -> list[tuple[str, tuple]]:
    """count seeded (name, arguments) calls of API; a fig3 call's beams are valid."""
    rng = random.Random(seed)
    calls = []
    for _ in range(count):
        name = rng.choice(list(API))
        if name == "BeamProfile":
            args = _beam_args(rng, rng.random() < 0.3)
        elif name == "ScanGrid":
            args = _grid_args(rng)
        elif name == "CascadeGeometry":
            args = _geometry_args(rng)
        else:
            state = rng.choice(["psi_u", "psi_e"] * 4 + ["psi_u_prime"])
            beams = None if rng.random() < 0.15 else [_beam_args(rng, True) for _ in range(rng.choice([2] * 8 + [1, 3]))]
            args = state, beams, None if rng.random() < 0.15 else _grid_args(rng)
        calls.append((name, args))
    return calls


def _fig3(package: ModuleType, state: str, beams: list[tuple] | None, grid: tuple | None) -> str:
    beams = None if beams is None else [package.detection.BeamProfile(*args) for args in beams]
    grid = None if grid is None else package.detection.ScanGrid(*grid)
    return repr(package.experiments.fig3_visibility(state, beams, grid))


#: The analyzer angles, in radians, of each cascade's coincidence rows in the api category.
CASCADE_ANGLES = (0.0, -0.0, 0.3, -1.2, 2.5, 1e300, -1e300)


def _cascade(package: ModuleType, parts: tuple[complex, ...]) -> str:
    experiments = package.experiments
    geometry = experiments.CascadeGeometry(*parts)
    src = experiments.source("psi_u_prime", geometry)
    reads = (lambda: src.K, lambda: src.T, lambda: src.same_channel,
             lambda: experiments.coincidence_rows(src, CASCADE_ANGLES, CASCADE_ANGLES))
    return repr((geometry, *(outcome(read) for read in reads)))


def _source(package: ModuleType, kind: str, split: bool) -> str:
    """A shared source's arms, K, T, same_channel and coincidence rows over
    CASCADE_ANGLES, and for circular_pair fig1_conditional_check at each angle."""
    experiments = package.experiments
    src = experiments.source(kind, split=split)
    reads = [lambda: [list(form.items()) for arm in (src.arm1, src.arm2) for form in arm],
             lambda: src.K, lambda: src.T, lambda: src.same_channel,
             lambda: experiments.coincidence_rows(src, CASCADE_ANGLES, CASCADE_ANGLES)]
    if kind == "circular_pair":
        reads.append(lambda: [experiments.fig1_conditional_check(src, t) for t in CASCADE_ANGLES])
    return repr([outcome(read) for read in reads])


#: Each api call by name: the package and its arguments to the repr of its result.
API: dict[str, Callable[[ModuleType, tuple], str]] = {
    "BeamProfile": lambda package, args: repr(package.detection.BeamProfile(*args)),
    "ScanGrid": lambda package, args: repr(package.detection.ScanGrid(*args)),
    "fig3_visibility": lambda package, args: _fig3(package, *args),
    "CascadeGeometry": _cascade,
}


def cli_corpus(corpus: list[str], run_dir: Path) -> Iterator[list[str]]:
    from test_cli import ODD_ARGV
    from test_golden import GOLDEN
    from test_readme import readme_cli_examples

    yield from ODD_ARGV
    yield from (argv for argv, _, _ in GOLDEN)
    yield from (argv for argv, _ in readme_cli_examples())
    yield from map(flag_argv, corpus)
    for i, text in enumerate(corpus[::10]):
        path = run_dir / f"scenario{i}.txt"
        path.write_text(text, encoding="utf-8")
        yield ["run", str(path)]


# --- the comparison -------------------------------------------------------------


def admitted(category: str, old: Outcome, new: Outcome, expect_stderr: bool) -> bool:
    if not expect_stderr or old[0] != new[0]:
        return False
    if old[0] == "raise":
        return old[1] == new[1]
    return category == "cli" and old[1][:2] == new[1][:2]


def compare(parent: ModuleType, change: ModuleType, corpus: list[str], expect_stderr: bool) -> tuple[dict, list]:
    """The count of inputs per category and the differences of parent and change."""
    counts: dict[str, int] = {}
    differences: list[Difference] = []

    def check(category: str, given: object, old: Outcome, new: Outcome) -> None:
        counts[category] = counts.get(category, 0) + 1
        if old != new:
            differences.append((category, given, old, new, admitted(category, old, new, expect_stderr)))

    def evaluated(package: ModuleType, spec: object) -> tuple[str, str, str]:
        rows = package.scenario.evaluate(spec)
        return repr(rows), package.cli.render_csv(rows), package.cli.render_json(rows)

    for text in corpus:
        old, new = (outcome(lambda p=p: p.scenario.parse_scenario(text)) for p in (parent, change))
        check("parse", text, *((o[0], repr(o[1])) if o[0] == "ok" else o for o in (old, new)))
        if old[0] == new[0] == "ok":
            old, new = outcome(lambda: evaluated(parent, old[1])), outcome(lambda: evaluated(change, new[1]))
            check("evaluate", text, old, new)
    old, new = (outcome(lambda p=p: repr(p.selfcheck.selfcheck_rows())) for p in (parent, change))
    check("selfcheck", "selfcheck_rows()", old, new)
    with tempfile.TemporaryDirectory(prefix="biphoton-differ-") as tmp:
        for argv in cli_corpus(corpus, Path(tmp)):
            check("cli", argv, cli_outcome(parent.cli.main, argv), cli_outcome(change.cli.main, argv))
    for name, args in api_calls(SEED, CALLS):
        check("api", (name, args), *(outcome(lambda p=p: API[name](p, args)) for p in (parent, change)))
    for kind, split in itertools.product(change.experiments.NAMED_STATE_KINDS, (False, True)):
        given = ("source", kind, split)
        check("api", given, *(outcome(lambda p=p: _source(p, kind, split)) for p in (parent, change)))
    return counts, differences


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare the package at REV with the working tree.")
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--expect", choices=["stderr"], help="admit message-only changes")
    args = parser.parse_args(argv)
    with revision_package(args.rev) as parent:
        counts, differences = compare(parent, biphoton, texts(SEED, TEXTS), args.expect == "stderr")
    for category, given, old, new, ok in differences:
        print(f"[{category}{', expected' if ok else ''}] {given!r}\n  {args.rev}: {old!r}\n  tree: {new!r}")
    unexpected = sum(not ok for *_, ok in differences)
    for category, count in counts.items():
        found = [ok for c, *_, ok in differences if c == category]
        print(f"{category}: {count} inputs, {len(found)} differences, {sum(found)} of them expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
