"""The parent-versus-change differ (tests/differ.py) on a small corpus: a tree
against itself shows no difference, and --expect stderr admits a changed
message but not a changed result."""

from __future__ import annotations

from types import SimpleNamespace

import biphoton
import differ
from biphoton import scenario as sc


def test_a_tree_against_itself_shows_no_difference():
    counts, differences = differ.compare(biphoton, biphoton, differ.texts(5, 200), False)
    assert differences == []
    assert set(counts) == {"parse", "evaluate", "selfcheck", "cli", "api"} and counts["parse"] == 200


def changed(parse):
    """biphoton with parse_scenario replaced, for both the API and the CLI's run command."""
    scenario = SimpleNamespace(parse_scenario=parse, evaluate=sc.evaluate)
    return SimpleNamespace(scenario=scenario, cli=biphoton.cli, selfcheck=biphoton.selfcheck,
                           detection=biphoton.detection, experiments=biphoton.experiments)


def reworded(text):
    try:
        return sc.parse_scenario(text)
    except sc.ValidationError as err:
        raise sc.ValidationError(f"reworded: {err}") from None


def test_expect_stderr_admits_a_changed_message_only():
    corpus = ["experiment pdc\nangle theta1 1\nangle theta1 2\n", "experiment pdc\n"]
    for expect_stderr in (False, True):
        _, differences = differ.compare(biphoton, changed(reworded), corpus, expect_stderr)
        assert [(category, given, ok) for category, given, _, _, ok in differences] == [
            ("parse", corpus[0], expect_stderr)
        ]


def test_expect_stderr_does_not_admit_a_changed_spec():
    corpus = ["experiment pdc\nstate psi_u\n"]
    _, differences = differ.compare(biphoton, changed(lambda text: sc.parse_scenario(text)._replace(
        state="psi_e")), corpus, True)
    assert [(category, ok) for category, _, _, _, ok in differences] == [("parse", False), ("evaluate", False)]
