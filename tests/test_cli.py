"""End-to-end checks of the command line surface, mostly in process."""

import io
import json
import os
import select
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from slithercode import cli, constants, full_binary_table, games
from slithercode.codec import SlitherCode, decode_sequence
from slithercode.trees import COMPLY, NORMAL

FIG1_ARG = "3 1 4 1 5 9 2 6 5"
FIG1_TREE_TEXT = """\
10 9
1 2
2 5
3 5
4 6
5 9
6 1
7 3
8 1
10 4
"""


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- encode / decode --------------------------------------------------------


def test_decode_figure_one(capsys):
    rc, out, _ = run_cli(capsys, "decode", "--variant", "normal", "--n", "10", FIG1_ARG)
    assert rc == 0
    assert out == FIG1_TREE_TEXT


def test_decode_json(capsys):
    rc, out, _ = run_cli(capsys, "decode", "--variant", "normal", "--n", "10",
                         FIG1_ARG, "--format", "json")
    assert rc == 0
    d = json.loads(out)
    assert d["root"] == 9 and d["parent"]["5"] == 9


def test_encode_decode_roundtrip_via_files(tmp_path, capsys):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text(FIG1_TREE_TEXT)
    rc, code_text, _ = run_cli(capsys, "encode", str(tree_file), "--variant", "normal")
    assert rc == 0
    assert code_text == "10 normal\n3 1 4 1 5 9 2 6 5\n"

    code_file = tmp_path / "code.txt"
    code_file.write_text(code_text)
    rc, tree_text, _ = run_cli(capsys, "decode", str(code_file), "--variant", "normal")
    assert rc == 0
    assert tree_text == FIG1_TREE_TEXT


def test_encode_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(FIG1_TREE_TEXT))
    rc, out, _ = run_cli(capsys, "encode", "--variant", "normal", "--format", "json")
    assert rc == 0
    d = json.loads(out)
    assert d["symbols"] == [3, 1, 4, 1, 5, 9, 2, 6, 5]
    assert d["auxiliary"] == [7, 8, 10, 6, 2, 5, 1, 4, 3]


def test_tree_comments_and_blank_lines(capsys):
    text = "# a star\n4 1\n\n2 1  # leaf\n3 1\n4 1\n"
    rc, out, _ = run_cli(capsys, "encode", text, "--variant", "normal")
    assert rc == 0
    assert out.splitlines()[1] == "1 1 1"


# --- params and read --------------------------------------------------------


def test_params_figure_one(capsys):
    rc, out, _ = run_cli(capsys, "params", FIG1_TREE_TEXT, "--format", "json")
    assert rc == 0
    d = json.loads(out)
    assert (d["independence"], d["matching"]) == (6, 4)
    assert (d["path_edges"], d["path_cover"]) == (7, 3)
    assert d["capacity_edges"] == 7 and d["b"] == 2
    assert d["classification"]["normal"]["9"] == "P"
    assert d["classification"]["comply"]["3"] == "P1"


def test_read_normal(capsys):
    rc, out, _ = run_cli(capsys, "read", "--variant", "normal", "--n", "10",
                         FIG1_ARG, "--format", "json")
    assert rc == 0
    d = json.loads(out)
    assert d["alpha"] == 6 and d["root"] == 9 and d["root_class"] == "P"
    assert d["p_set"] == [2, 6, 7, 8, 9, 10]


def test_read_comply_and_capacity(capsys):
    rc, out, _ = run_cli(capsys, "read", "--variant", "comply", "--n", "5",
                         "1 1 1 1", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"n": 5, "variant": "comply", "beta": 3,
                               "path_edges": 2, "path_cover": 3}
    rc, out, _ = run_cli(capsys, "read", "--variant", "b=3", "--n", "4",
                         "1 1 1", "--format", "json")
    assert rc == 0
    assert json.loads(out)["capacity_edges"] == 3


# --- sampling and simulation ------------------------------------------------


def test_sample_is_seed_deterministic(capsys):
    argv = ("sample", "--family", "uniform", "--n", "8", "--seed", "4", "--count", "3",
            "--format", "json")
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0 and out1 == out2
    assert len(json.loads(out1)) == 3


def test_sample_families(capsys):
    rc, out, _ = run_cli(capsys, "sample", "--family", "full-binary", "--n", "7",
                         "--seed", "1", "--format", "json")
    assert rc == 0 and json.loads(out)["n"] == 7
    rc, out, _ = run_cli(capsys, "sample", "--family", "binary-lr", "--n", "6",
                         "--seed", "1", "--format", "json")
    assert rc == 0 and json.loads(out)["n"] == 6


def test_sample_full_binary_rejects_even_n(capsys):
    rc, _, err = run_cli(capsys, "sample", "--family", "full-binary", "--n", "6",
                         "--seed", "1")
    assert rc == 2 and "odd n" in err


@pytest.mark.parametrize(
    "argv, fragment",
    (
        (("sample", "--family", "uniform", "--n", "0"), "n must be >= 1, got 0"),
        (("sample", "--family", "full-binary", "--n", "1"), "odd n"),
        (("sample", "--family", "uniform", "--n", "5", "--count", "0"), "--count"),
        (("sample", "--family", "uniform", "--n", "5", "--count", "-3"), "--count"),
    ),
)
def test_sample_rejects(capsys, argv, fragment):
    rc, _, err = run_cli(capsys, *argv, "--seed", "1")
    assert rc == 2 and fragment in err


def test_sample_plane_points_at_simulate(capsys):
    rc, _, err = run_cli(capsys, "sample", "--family", "plane", "--n", "6", "--seed", "1")
    assert rc == 2 and "simulate only" in err


def test_sample_count_is_bounded_before_any_tree_is_drawn(capsys, monkeypatch):
    # every tree is held until printing: 10^8 trees at n = 8 would need about 60 GB
    monkeypatch.setattr(games, "RandomSource", None)
    rc, out, err = run_cli(capsys, "sample", "--family", "uniform", "--n", "8",
                           "--count", "100000000", "--seed", "1")
    assert (rc, out) == (2, "")
    assert err == (f"error: --n times --count is bounded at {cli._SAMPLE_MAX_N}, "
                   "got --n 8 --count 100000000\n")


def test_sample_variant_applies_to_every_family(capsys):
    deal = games.DEALS["full-binary"](9)(games.RandomSource(2).trial_rng(0)).tolist()
    comply = decode_sequence(deal, 9, COMPLY)
    assert comply != decode_sequence(deal, 9, NORMAL)
    rc, out, _ = run_cli(capsys, "sample", "--family", "full-binary", "--n", "9",
                         "--seed", "2", "--variant", "comply")
    assert (rc, out) == (0, cli.tree_to_text(comply))


def test_simulate_dice(capsys):
    argv = ("simulate", "--game", "dice", "--n", "6", "--trials", "500",
            "--seed", "12", "--threads", "1", "--format", "json")
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    d = json.loads(out)
    assert d["trials"] == 500 and sum(d["counts"].values()) == 500


def test_simulate_echoes_drawn_seed(capsys):
    rc, _, err = run_cli(capsys, "simulate", "--game", "dice", "--n", "5",
                         "--trials", "50", "--threads", "1")
    assert rc == 0
    assert err.startswith("seed: ")


def test_simulate_cards(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--game", "cards", "--deck", "3 1 0 0 0",
                         "--trials", "300", "--seed", "2", "--threads", "1",
                         "--format", "json")
    assert rc == 0
    assert set(json.loads(out)["counts"]) <= {"3", "4"}


@pytest.mark.parametrize(
    "argv, fragment",
    (
        (("simulate", "--game", "cards", "--trials", "10"), "--deck is required"),
        (("simulate", "--game", "cards", "--deck", "3 1 0 0 0", "--n", "4",
          "--trials", "10"), "disagrees with deck"),
        (("simulate", "--game", "dice", "--trials", "10"), "--n is required"),
        (("simulate", "--game", "full-binary", "--n", "6", "--trials", "10"), "odd n"),
        (("simulate", "--game", "dice", "--n", "6", "--trials", "10", "--threads", "2"),
         "--threads"),
        (("simulate", "--game", "dice", "--n", "6", "--trials", "10", "--threads", "0"),
         "--threads"),
    ),
)
def test_simulate_rejects(capsys, argv, fragment):
    rc, _, err = run_cli(capsys, *argv, "--seed", "1")
    assert rc == 2 and fragment in err


@pytest.mark.parametrize("argv, message", (
    (("--game", "dice", "--trials", "5"), "--n is required for the dice game"),
    (("--game", "cards", "--trials", "5"), "--deck is required for the cards game"),
    (("--game", "cards", "--deck", "1 x", "--trials", "5"),
     "--deck '1 x': multiplicity at index 1 must be an integer, got 'x'"),
    (("--game", "dice", "--n", "5", "--trials", "0"), "trials must be >= 1, got 0"),
    (("--game", "dice", "--n", "0", "--trials", "5"), "n must be >= 1, got 0"),
    (("--game", "cards", "--deck", "2 0 0", "--trials", "0"), "trials must be >= 1, got 0"),
    (("--game", "full-binary", "--n", "4", "--trials", "5"),
     "full-binary needs odd n = 2m+1 >= 3, got 4"),
    (("--game", "full-binary", "--n", "0", "--trials", "5"), "n must be >= 1, got 0"),
    # the field count is n, and an empty field was dropped: '1,,0' ran a 2-card deck
    (("--game", "cards", "--deck", "1,,0", "--trials", "2"),
     "--deck '1,,0': a multiplicity is empty"),
    (("--game", "cards", "--deck", ",1,0", "--trials", "2"),
     "--deck ',1,0': a multiplicity is empty"),
    (("--game", "cards", "--deck", "1,0,", "--trials", "2"),
     "--deck '1,0,': a multiplicity is empty"),
), ids=("dice-without-n", "cards-without-deck", "bad-deck", "dice-no-trials", "dice-n-0",
        "cards-no-trials", "full-binary-even-n", "full-binary-n-0", "deck-empty-middle",
        "deck-empty-first", "deck-empty-last"))
def test_simulate_draws_no_seed_for_a_run_it_refuses(capsys, argv, message):
    # a "seed: <random>" line was printed before the refusal
    rc, out, err = run_cli(capsys, "simulate", *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_sample_draws_no_seed_for_a_run_it_refuses(capsys):
    # a "seed: <random>" line was printed before the deal refused n
    rc, out, err = run_cli(capsys, "sample", "--family", "uniform", "--n", "0")
    assert (rc, out, err) == (2, "", "error: n must be >= 1, got 0\n")


@pytest.mark.parametrize("n, message", (
    ("4", "full-binary needs odd n = 2m+1 >= 3, got 4"),
    ("1", "full-binary needs odd n = 2m+1 >= 3, got 1"),
    ("0", "n must be >= 1, got 0"),
))
def test_sample_checks_the_familys_size_before_a_seed(capsys, n, message):
    # the parity rule lived inside the deal, so "seed: <random>" was printed first
    rc, out, err = run_cli(capsys, "sample", "--family", "full-binary", "--n", n)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", (
    (("--n", "99", "--trials", "10000"), "clt check needs n >= 100, got 99"),
    (("--n", "100", "--trials", "9999"), "clt check needs trials >= 10000, got 9999"),
), ids=("n", "trials"))
def test_clt_draws_no_seed_for_a_run_it_refuses(capsys, argv, message):
    # a "seed: <random>" line was printed before clt_check refused the minima
    rc, out, err = run_cli(capsys, "clt", *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_simulate_reads_deck_fields_split_by_commas_or_spaces(capsys):
    outs = {run_cli(capsys, "simulate", "--game", "cards", "--deck", deck, "--trials", "50",
                    "--seed", "1") for deck in ("2 2 0 0 0", "2,2,0,0,0", "2, 2, 0, 0, 0")}
    assert len(outs) == 1 and next(iter(outs))[0] == 0


def test_simulate_deck_errors_name_the_flag_and_token(capsys):
    rc, out, err = run_cli(capsys, "simulate", "--game", "cards", "--deck", "1 1.5 0",
                           "--trials", "2", "--seed", "1")
    assert (rc, out) == (2, "")
    assert "--deck" in err and "'1.5'" in err


@pytest.mark.parametrize(
    "argv",
    (
        ("simulate", "--game", "dice", "--n", "100000000000", "--trials", "1"),
        ("sample", "--family", "uniform", "--n", "100000000000"),
        ("clt", "--n", "100000000000", "--trials", "10000"),
    ),
    ids=lambda argv: argv[0],
)
def test_n_is_bounded_before_anything_is_allocated(capsys, argv):
    # without the bound each of these allocated n int64s and died in MemoryError (exit 1)
    rc, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert (rc, out) == (2, "")
    assert err == f"error: --n is bounded at {cli._SAMPLE_MAX_N}, got 100000000000\n"


@pytest.mark.parametrize(
    "argv",
    (
        ("simulate", "--game", "dice", "--n", "5"),
        ("clt",),
    ),
    ids=lambda argv: argv[0],
)
def test_trials_is_bounded_before_the_seed_is_drawn(capsys, monkeypatch, argv):
    # without the bound, --trials 10^11 ran for hours; past the bound no seed is drawn
    def drawn(seed):
        raise ValueError("seed drawn")

    monkeypatch.setattr(cli, "resolve_seed", drawn)
    assert cli._TRIALS_MAX == 10**7
    rc, out, err = run_cli(capsys, *argv, "--trials", "10000001")
    assert (rc, out) == (2, "")
    assert err == "error: --trials is bounded at 10000000, got 10000001\n"
    assert run_cli(capsys, *argv, "--trials", "10000000") == (2, "", "error: seed drawn\n")


@pytest.mark.parametrize("seed", ("-1", "18446744073709551616"))
def test_seed_outside_64_bits_exits_2(capsys, seed):
    # -1 and 2^64 - 1, 0 and 2^64 ran the same trials under different seed headers
    rc, out, err = run_cli(capsys, "simulate", "--game", "dice", "--n", "50",
                           "--trials", "200", "--seed", seed)
    assert (rc, out) == (2, "")
    assert err == f"error: seed must be in 0..2^64-1, got {seed}\n"


@pytest.mark.parametrize("seed", ("0", "18446744073709551615"))
def test_seed_at_either_end_of_64_bits_runs(capsys, seed):
    for argv in (("simulate", "--game", "dice", "--n", "50", "--trials", "200"),
                 ("sample", "--family", "uniform", "--n", "5")):
        rc, out, err = run_cli(capsys, *argv, "--seed", seed)
        assert (rc, err) == (0, "") and out


def test_each_piece_reaches_a_pipe_as_it_is_written():
    # run flushed stdout once, at the end, so piped verify --level full gave its first line
    # when its last check was done; PYTHONUNBUFFERED would hide that, so the child runs without
    held = ("import sys\n"
            "from slithercode import cli\n"
            "def held(args):\n"
            "    yield 'PASS first: 1\\n'\n"
            "    sys.stdin.readline()  # held here until the test has read the first line\n"
            "    yield '1/1 checks passed\\n'\n"
            "cli.cmd_verify = held\n"
            "sys.exit(cli.main(['verify']))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-c", held], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        ready = select.select([proc.stdout], [], [], 20)[0]
        assert ready, "the first line had not reached the pipe while the command ran"
        assert proc.stdout.readline() == b"PASS first: 1\n"
    finally:
        proc.stdin.write(b"\n")
        proc.stdin.close()
        rest, err = proc.stdout.read(), proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
    assert (proc.wait(timeout=60), rest, err) == (0, b"1/1 checks passed\n", b"")


@pytest.mark.parametrize("unbuffered", ("", "1"), ids=("buffered", "unbuffered"))
def test_closed_stdout_exits_141_quietly(unbuffered):
    # Each output runs past the pipe's buffer, so the reader closes before the end: enumerate
    # prints about 290 KB in lines, sample about 250 KB in one write.  A closed pipe was
    # reported as invalid input, "error: [Errno 32] Broken pipe", exit 2; and unbuffered,
    # sample's raw write took part of its text and exited 0, the rest lost without an error
    for argv, first in ((("enumerate", "--n", "500"), b"# family uniform-unrooted\n"),
                        (("sample", "--family", "uniform", "--n", "20000", "--seed", "1"),
                         b"20000 ")):
        proc = subprocess.Popen([sys.executable, "-m", "slithercode", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
        assert proc.stdout.readline().startswith(first)
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141, argv
        assert proc.stderr.read() == b""
        proc.stderr.close()


def test_simulate_threads_flag_starts_no_thread(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    argv = ("simulate", "--game", "dice", "--n", "200", "--trials", "100", "--seed", "3")
    rc, default, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert run_cli(capsys, *argv, "--threads", "1") == (0, default, "")
    rc, out, err = run_cli(capsys, *argv, "--threads", "2")
    assert (rc, out) == (2, "") and "--threads" in err


def test_clt_has_no_threads_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["clt", "--n", "100", "--trials", "10000", "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# --- enumeration, constants, clt --------------------------------------------


def test_enumerate_n4(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert rc == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert [r.split()[:2] for r in rows] == [["2", "12"], ["3", "4"]]


def test_enumerate_full_binary(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--n", "7", "--family", "full-binary",
                         "--format", "json")
    assert rc == 0
    want = {str(k): str(v) for k, v in full_binary_table(3).counts.items()}
    assert json.loads(out)["counts"] == want


def test_enumerate_parameter_sweep(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--parameter", "path-cover",
                         "--format", "json")
    assert rc == 0
    assert json.loads(out)["counts"] == {"1": "300", "2": "300", "3": "25"}


@pytest.mark.parametrize(
    "argv",
    (
        ("enumerate", "--n", "8", "--parameter", "independence"),
        ("enumerate", "--n", "6", "--family", "full-binary"),
        ("enumerate", "--n", "7", "--family", "full-binary", "--parameter", "matching"),
        ("enumerate", "--n", "0"),
        ("enumerate", "--n", "-3"),
        ("enumerate", "--n", "1", "--family", "full-binary"),
        # the closed forms are bounded at n = 1000
        ("enumerate", "--n", "1001"),
        ("enumerate", "--n", "1001", "--family", "full-binary"),
        ("enumerate", "--n", "100000", "--format", "json"),
    ),
)
def test_enumerate_rejects(capsys, argv):
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 2 and err.startswith("error: ")
    if int(argv[2]) > 1000:
        assert "bounded at --n 1000" in err


@pytest.mark.parametrize(
    "argv",
    (
        ("enumerate", "--parameter", "independence", "--n", "4", "--b", "0"),
        ("enumerate", "--n", "4", "--b", "-9"),
        ("enumerate", "--family", "full-binary", "--n", "5", "--b", "99"),
    ),
)
def test_enumerate_b_applies_only_to_capacity_edges(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "error: --b applies only to --parameter capacity-edges\n"


def test_enumerate_capacity_edges_defaults_to_b2(capsys):
    argv = ("enumerate", "--parameter", "capacity-edges", "--n", "5")
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--b", "2")
    assert run_cli(capsys, *argv)[0] == 0


def test_constants_output(capsys):
    rc, out, _ = run_cli(capsys, "constants", "--format", "json")
    assert rc == 0
    assert json.loads(out) == constants().to_json_dict()
    rc, out, _ = run_cli(capsys, "constants")
    assert rc == 0
    assert any(ln.split()[0] == "rho" and ln.split()[1].startswith("0.5671432904")
               for ln in out.splitlines())


def test_clt_small(capsys):
    rc, out, _ = run_cli(capsys, "clt", "--n", "100", "--trials", "10000",
                         "--seed", "3", "--format", "json")
    assert rc == 0
    d = json.loads(out)
    assert {"mean_over_n", "ks_distance", "ks_fitted"} <= set(d)
    assert abs(d["mean_over_n"] - d["rho"]) < 0.02


# --- verify and error handling ----------------------------------------------


def test_verify_quick(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--level", "quick")
    assert rc == 0
    lines = out.splitlines()
    assert any("PASS" in ln for ln in lines)
    assert not any("FAIL" in ln for ln in lines)


def test_header_flag_conflicts(capsys):
    rc, _, err = run_cli(capsys, "decode", "5 comply\n1 1 1 1", "--variant", "normal")
    assert rc == 2 and "declares variant comply" in err
    rc, _, err = run_cli(capsys, "decode", "5 normal\n1 1 1 1", "--variant", "normal",
                         "--n", "6")
    assert rc == 2 and "declares n=5" in err


def test_malformed_inputs_exit_2(capsys):
    rc, _, err = run_cli(capsys, "decode", "1 2 x", "--variant", "normal")
    assert rc == 2 and "symbol at index 2 must be an integer, got 'x'" in err
    rc, _, err = run_cli(capsys, "encode", "not a tree", "--variant", "normal")
    assert rc == 2
    rc, _, err = run_cli(capsys, "params", "{bad json")
    assert rc == 2


@pytest.mark.parametrize(
    "argv, fragment",
    (
        (("decode", "--variant", "normal", '{"symbols":[1.5, 2.9]}'),
         "symbol at index 0 must be an integer, got 1.5"),
        (("decode", "--variant", "normal", '{"symbols":[true, 1]}'),
         "symbol at index 0 must be an integer, got True"),
        (("decode", "--variant", "normal", '{"symbols":"12"}'),
         "symbols must be a sequence, got '12'"),
        (("params", '{"n":3,"parent":{"2":1.9,"3":1}}'),
         "label in parent entry at index 0 must be an integer, got 1.9"),
        (("decode", "--variant", "normal", '{"symbols":5}'), "symbols must be a sequence, got 5"),
        (("decode", "--variant", "normal", '{"symbols":null}'),
         "symbols must be a sequence, got None"),
        (("decode", "--variant", "normal", '{"symbols":{"1":1}}'),
         "symbols must be a sequence, got {'1': 1}"),
    ),
)
def test_non_integral_json_exits_2(capsys, argv, fragment):
    # int() would truncate 1.9, read true as 1 and iterate "12" as digits; a number, null
    # or an object as the symbols is refused before n is taken from their length
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == "" and fragment in err


@pytest.mark.parametrize("variant, shown",
                         (("null", "None"), ("1", "1"), ('["normal"]', "['normal']")))
def test_a_json_code_variant_must_be_a_string(capsys, variant, shown):
    # str() read null as "None", so the error named a variant the input does not hold
    code = f'{{"variant": {variant}, "symbols": [1, 1]}}'
    rc, out, err = run_cli(capsys, "decode", "--variant", "normal", code)
    assert (rc, out, err) == (2, "", f"error: variant must be a string, got {shown}\n")


@pytest.mark.parametrize(
    "tree, fragment",
    (
        ('{"n": 3, "parent": 5}', "parent must be a map or a list"),
        ('{"n": 2, "parent": null}', "parent must be a map or a list"),
        ('{"n": 3, "parent": [1, 2]}', "parent entry 1 at index 0 is not a"),
        ('{"n": 3, "parent": ["21", "31"]}', "parent entry '21' at index 0 is not a"),
        ('{"n": 1000000, "parent": {}}', "1000000 vertices have no parent"),
        ("1000000000000 1", "1000000000000 vertices have no parent"),
    ),
)
def test_bad_parent_or_many_roots_exit_2_with_a_short_error(capsys, tree, fragment):
    rc, out, err = run_cli(capsys, "params", tree)
    assert rc == 2 and out == "" and fragment in err
    assert len(err.encode()) < 200


BIG = "x" * 10**6


@pytest.mark.parametrize(
    "argv",
    (
        ("decode", "--variant", "normal", json.dumps({"symbols": [1, BIG]})),
        ("params", json.dumps({"n": 3, "parent": [[2, 1], [BIG]]})),
        ("params", json.dumps({"n": 3, "parent": [[2, 1], [3, BIG]]})),
        ("decode", "--variant", "normal", json.dumps({"symbols": BIG})),
        ("params", f"3 1\n2 1\n{BIG}"),
        ("params", f"{BIG}\n2 1\n3 1"),
        ("decode", "--variant", "normal", f"3 {BIG}\n1 1"),
        ("params", json.dumps({"n": 3, "root": BIG, "parent": {"2": 1, "3": 1}})),
    ),
    ids=("code-symbol", "parent-entry", "parent-label", "symbols-not-a-list", "tree-row",
         "tree-first-line", "code-header-variant", "declared-root"),
)
def test_a_huge_bad_value_gives_a_short_error(capsys, argv):
    # each message echoed the whole value, a megabyte on stderr
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert len(err.encode()) < 300 and "xxx...xxx" in err


@pytest.mark.parametrize(
    "argv, message",
    (
        (("decode", "--variant", "normal", "1_0 1 2 3 4 5 6 7 8 9"),
         "symbol at index 0 must be an integer, got '1_0'"),
        (("decode", "--variant", "normal", '{"symbols": [1, "\u0663"]}'),
         "symbol at index 1 must be an integer, got '\u0663'"),
        (("params", '{"n": " 3", "parent": {"2": 1, "3": 1}}'),
         "n must be an integer, got ' 3'"),
        (("decode", "--variant", "normal", '{"n": "3 ", "symbols": [1, 1]}'),
         "n must be an integer, got '3 '"),
        (("decode", "--variant", "normal", "1 -3 2"), "symbol -3 out of range 1..4"),
    ),
)
def test_integer_text_is_a_sign_and_ascii_digits(capsys, argv, message):
    # int() reads "1_0" as 10 and " 3" as 3; a signed integer still reaches the range check
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    (
        (("decode", "--variant", "normal", "4 normal\n99999999999999999999 1 1"),
         "symbol 99999999999999999999 out of range 1..4"),
        (("decode", "--variant", "normal", "4 normal\n1.5 1 1"),
         "symbol at index 0 must be an integer, got '1.5'"),
        (("read", "--variant", "normal", "1 1.5 1"),
         "symbol at index 1 must be an integer, got '1.5'"),
    ),
)
def test_code_text_the_bulk_reader_refuses_keeps_its_message(capsys, argv, message):
    # np.fromstring would clamp the long symbol to 2**63 - 1 and stop at the "."
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text", ("4 normal\n+3 002 4", "4 normal\n3\t002\t+4\n", "+3\t2 004", "3\t2\t4"))
def test_signed_padded_and_tabbed_symbols_read_as_tokens_read(text):
    with mock.patch.object(cli, "_bulk_ints", lambda *args, **kwargs: None):
        tokens = cli.parse_code(text, NORMAL, None)
    assert cli.parse_code(text, NORMAL, None) == tokens == SlitherCode(4, NORMAL, (3, 2, 4))


def test_long_code_with_one_bad_symbol_gives_a_short_error(capsys, tmp_path):
    symbols = [1] * 99_997
    symbols[50_000] = 1.5
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"symbols": symbols}))
    rc, out, err = run_cli(capsys, "decode", "--variant", "normal", str(path))
    assert rc == 2 and out == ""
    assert len(err.encode()) < 200 and "1.5" in err and "50000" in err


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


DEEP = nested(10**5)


@pytest.mark.parametrize(
    "argv",
    (
        ("params", f'{{"n": 3, "parent": {DEEP}}}'),
        ("decode", "--variant", "normal", f'{{"symbols": {DEEP}}}'),
    ),
    ids=("params", "decode"),
)
def test_deeply_nested_json_exits_2(capsys, argv):
    # the JSON decoder's RecursionError was reported as an internal error
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "error: JSON input nests arrays or objects too deeply to read\n"


def test_json_nested_near_the_recursion_limit_exits_2(capsys):
    # a value the decoder can read may still be too deep for repr to echo
    limit = sys.getrecursionlimit()
    for depth in range(limit - 120, limit + 5):
        for argv in (("decode", "--variant", "normal", f'{{"symbols": [1, {nested(depth)}]}}'),
                     ("params", f'{{"n": 3, "parent": [[2, {nested(depth)}]]}}')):
            rc, out, err = run_cli(capsys, *argv)
            assert (rc, out) == (2, ""), (depth, err)
            assert len(err.encode()) < 200


def argparse_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("flag", ("--variant", "--n"))
def test_argparse_errors_are_cut_like_library_errors(capsys, flag):
    # argparse echoed the whole value, 100 kB on stderr
    variant = ("--variant", "normal") if flag == "--n" else ()
    code, err = argparse_exit(capsys, "decode", "1 1", *variant, flag, "x" * 10**5)
    assert code == 2 and len(err.encode()) < 1000 and "xxx...xxx" in err


@pytest.mark.parametrize(
    "argv, message",
    (
        (("decode", "1 1", "--variant", "normal", "--n", "x"),
         "slithercode decode: error: argument --n: invalid int value: 'x'"),
        (("frobnicate",),
         "slithercode: error: argument command: invalid choice: 'frobnicate' (choose from "
         "'encode', 'decode', 'params', 'read', 'sample', 'simulate', 'enumerate', "
         "'constants', 'clt', 'verify')"),
    ),
)
def test_argparse_errors_about_short_values_stay_whole(capsys, argv, message):
    code, err = argparse_exit(capsys, *argv)
    assert code == 2 and err.endswith(f"\n{message}\n")


@pytest.mark.parametrize("value, message", (
    ("weird", "unknown variant 'weird' (expected normal, comply, or b=K)"),
    ("b=0", "capacity must be >= 1, got 0"),
    ("b=x", "capacity must be an integer, got 'x'"),
))
def test_a_bad_variant_flag_keeps_the_library_message(capsys, value, message):
    # argparse said "invalid parse value: 'weird'", naming the function Variant.parse
    code, err = argparse_exit(capsys, "decode", "1 1", "--variant", value)
    assert code == 2 and err.endswith(f" error: argument --variant: {message}\n")


@pytest.mark.parametrize(
    "argv, flag, value",
    (
        (("clt", "--n", "1_000", "--trials", "10000", "--seed", "1"), "--n", "1_000"),
        (("enumerate", "--n", "\u0664"), "--n", "\u0664"),
        (("enumerate", "--n", " 3"), "--n", " 3"),
        (("simulate", "--game", "dice", "--n", "5", "--trials", "1_0", "--seed", "1"),
         "--trials", "1_0"),
        (("sample", "--family", "uniform", "--n", "4", "--seed", "1_0"), "--seed", "1_0"),
    ),
)
def test_integer_flags_follow_the_input_integer_rule(capsys, argv, flag, value):
    # argparse's int() took each of these, which input integers refuse
    code, err = argparse_exit(capsys, *argv)
    assert code == 2 and err.endswith(f" error: argument {flag}: invalid int value: {value!r}\n")


# 0 where int() reads text of any length: before Python 3.10.7, or with the limit off
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "9" * (DIGIT_LIMIT + 1)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="int() reads integer text of any length")
@pytest.mark.parametrize("text, what", (
    (f"1 {TOO_LONG}", "symbol at index 1"),
    (f'{{"symbols": [1, "{TOO_LONG}"]}}', "symbol at index 1"),
    (f"{TOO_LONG} normal\n1 1", "n"),
), ids=("code-text", "code-json", "code-header"))
def test_integer_text_past_the_digit_limit_exits_2_naming_it(capsys, text, what):
    # the text code exited 2 with Python's "Exceeds the limit (4300 digits) ..." message
    rc, out, err = run_cli(capsys, "decode", "--variant", "normal", text)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {what} has more than {DIGIT_LIMIT} digits, "
                          "got '999") and len(err) < 200


def test_a_key_error_is_an_internal_failure(capsys, monkeypatch):
    # no input reaches a KeyError, so one is a bug, not bad input
    def broken(args):
        raise KeyError("lost")
    monkeypatch.setattr(cli, "cmd_params", broken)
    rc, out, err = run_cli(capsys, "params", "1 1")
    assert (rc, out, err) == (1, "", "internal error: KeyError('lost')\n")


# Inputs for the parser property: JSON objects with the keys the formats
# read, and text rows of integer-like and other tokens.
KEYS = ("n", "root", "parent", "symbols", "variant")
SCALARS = (st.none() | st.booleans() | st.integers(-2, 12) | st.integers()
           | st.floats(allow_nan=False) | st.text(max_size=4)
           | st.sampled_from(("1", " 2", "normal", "comply", "b=3", "b=0")))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner,
                                     max_size=4)),
    max_leaves=10)
NON_INTEGRAL = ("1.5", "1e3", "0x1", "\u0661", "1_0", "10**6")
TOKENS = (st.integers(-2, 12).map(str)
          | st.sampled_from(("normal", "comply", "b=3", "x", "#", *NON_INTEGRAL)))
ROWS = st.lists(st.lists(TOKENS, max_size=4).map(" ".join), max_size=6).map("\n".join)
INPUTS = (st.dictionaries(st.sampled_from(KEYS), JSON_VALUES, max_size=5).map(json.dumps)
          | ROWS | st.text(max_size=30))


@given(st.sampled_from(("decode", "read", "encode", "params")),
       st.sampled_from(("normal", "comply", "b=3")), INPUTS)
@settings(max_examples=200, deadline=None)
@example("params", "normal", f'{{"n": {DEEP}}}')
def test_parsers_exit_0_or_2_on_any_input(command, variant, text):
    assume(text != "-" and not os.path.exists(text))  # not stdin or a file
    argv = [command, text, *(("--variant", variant) if command != "params" else ())]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            rc = exc.code
    assert rc in (0, 2), err.getvalue()
    if not text.lstrip().startswith("{"):  # text: a number that is not an integer is refused
        tokens = " ".join(ln.split("#", 1)[0] for ln in text.splitlines()).split()
        assert rc != 0 or not set(tokens) & set(NON_INTEGRAL), tokens


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "slithercode", "decode", "--variant", "normal",
         "--n", "10", FIG1_ARG],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "10 9"


def test_import_loads_no_concurrency_machinery():
    # trials run on one thread and the exhaustive sweeps in one process
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, slithercode, slithercode.cli; "
             "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False False\n"), proc.stderr
