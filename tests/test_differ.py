"""The parent-versus-change differ (tests/differ.py) on a small corpus: a tree
against itself shows no difference, --expect stderr admits a changed
message but not a changed result, and a declaration admits only the
differences it claims, fails the run where it claims none, and is ignored
where its file was written against another base."""

from __future__ import annotations

import math
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


def claims_reworded(category, given, old, new):
    return category == "parse" and new[0] == "raise" and new[2].startswith("reworded: ")


def test_a_declaration_admits_the_differences_it_claims_and_no_other():
    corpus = ["experiment pdc\nangle theta1 1\nangle theta1 2\n", "experiment pdc\nstate psi_u\n"]
    with_spec = changed(lambda text: reworded(text)._replace(state="psi_e"))
    _, differences = differ.compare(biphoton, with_spec, corpus, False)
    assert [(category, ok) for category, _, _, _, ok in differences] == [("parse", False), ("parse", False),
                                                                          ("evaluate", False)]
    reason = "parse errors are reworded"
    admitted, claims = differ.declared(differences, [differ.Declaration("reworded", reason, claims_reworded)])
    assert [(category, ok) for category, _, _, _, ok in admitted] == [("parse", True), ("parse", False),
                                                                       ("evaluate", False)]
    assert claims == {"reworded": 1} and differ.verdict(admitted, claims) == 1
    admitted, claims = differ.declared(differences[:1], [differ.Declaration("reworded", reason, claims_reworded)])
    assert claims == {"reworded": 1} and differ.verdict(admitted, claims) == 0


def test_a_declaration_that_admits_nothing_fails_the_run():
    _, differences = differ.compare(biphoton, changed(reworded), ["experiment pdc\nangle theta1 1\nangle theta1 2\n"],
                                    False)
    stale = differ.Declaration("stale", "claims an input the corpus lacks", lambda category, given, *_: given == "")
    admitted, claims = differ.declared(differences, [differ.Declaration("reworded", "", claims_reworded), stale])
    assert all(ok for *_, ok in admitted) and claims == {"reworded": 1, "stale": 0}
    assert differ.verdict(admitted, claims) == 1
    assert differ.verdict(*differ.declared([], [stale])) == 1
    assert differ.verdict(*differ.declared([], [])) == 0


def test_within_ulps_admits_a_last_bit_and_no_more():
    ok = lambda value: ("ok", repr(value))  # noqa: E731
    half, up = [0.5, 0, 0.25], [0.5 + math.ulp(0.5), 0, 0.25]
    assert differ.within_ulps(ok(half), ok(up), 1) and differ.within_ulps(ok(half), ok(half), 1)
    assert not differ.within_ulps(ok(half), ok([0.5 + 2 * math.ulp(0.5), 0, 0.25]), 1)
    assert not differ.within_ulps(ok(half), ok([0.5, 0.0, 0.25]), 1)  # 0 became 0.0
    assert not differ.within_ulps(ok(half), ok(half[:2]), 1)
    assert not differ.within_ulps(ok(half), ("raise", "OverflowError", "x"), 1)
    assert not differ.within_ulps(ok([math.nan]), ok([math.nan]), 1)


BASE = "0123456789abcdef0123456789abcdef01234567"


def declarations_file(tmp_path):
    path = tmp_path / "declared.py"
    path.write_text(f"from differ import within_ulps\nBASE = {BASE!r}\n"
                    "DECLARED = [('last_bit', 'one ulp', lambda c, g, old, new: within_ulps(old, new, 1))]\n")
    return str(path)


def test_a_declarations_file_may_import_the_differ(tmp_path):
    [declaration] = differ.load_declarations(declarations_file(tmp_path), BASE)
    assert declaration.name == "last_bit" and declaration.admits("api", None, ("ok", "[1.0]"), ("ok", "[1.0]"))


def test_a_declarations_file_of_another_base_is_stale_and_ignored(tmp_path, capsys):
    path, other = declarations_file(tmp_path), "f" * 40
    assert differ.load_declarations(path, other) == []
    stale = f"{path} is stale: its declarations were written against {BASE}, not {other}; ignored\n"
    assert capsys.readouterr().out == stale
    assert differ.verdict(*differ.declared([], differ.load_declarations(path, other))) == 0
