"""The self-check suite as a library: slithercode.verify.run and its CLI front."""

import pytest

from slithercode import cli, verify

NAMES = ["worked-example", "bijection-sweep", "reading-rules", "counting-formulas",
         "full-binary-decks", "capacity-oracle", "constants", "sampling-statistics"]


def test_quick_run_yields_every_check_in_order_and_all_pass():
    results = list(verify.run("quick"))
    assert [name for name, _, _ in results] == NAMES
    assert all(ok for _, ok, _ in results)
    assert [name for name, _ in verify.CHECKS] == NAMES


def test_unknown_level_is_refused():
    with pytest.raises(ValueError, match="quick or full"):
        verify.run("slow")


def test_failed_and_crashed_checks_fail_the_command(capsys, monkeypatch):
    def crash(full):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(verify, "CHECKS", (("fails", lambda full: (False, "x")),
                                           ("crashes", crash)))
    assert cli.main(["verify"]) == 1
    assert capsys.readouterr().out == (
        "FAIL fails: x\n"
        "FAIL crashes: crashed: ZeroDivisionError('boom')\n"
        "0/2 checks passed (quick level)\n")


def test_full_level_reaches_each_check(capsys, monkeypatch):
    levels = []

    def record(full):
        levels.append(full)
        return True, "ok"

    monkeypatch.setattr(verify, "CHECKS", (("record", record),))
    assert cli.main(["verify", "--level", "full"]) == 0
    assert capsys.readouterr().out == "PASS record: ok\n1/1 checks passed (full level)\n"
    assert levels == [True]
