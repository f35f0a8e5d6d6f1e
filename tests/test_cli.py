"""End-to-end checks of the command line surface, mostly in process."""

import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from slithercode import cli, constants, full_binary_table

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
    assert rc == 2 and "non-integer symbol" in err
    rc, _, err = run_cli(capsys, "encode", "not a tree", "--variant", "normal")
    assert rc == 2
    rc, _, err = run_cli(capsys, "params", "{bad json")
    assert rc == 2


@pytest.mark.parametrize(
    "argv, fragment",
    (
        (("decode", "--variant", "normal", '{"symbols":[1.5, 2.9]}'), "non-integer symbol"),
        (("decode", "--variant", "normal", '{"symbols":[true, 1]}'), "non-integer symbol"),
        (("decode", "--variant", "normal", '{"symbols":"12"}'), "must be a JSON list"),
        (("params", '{"n":3,"parent":{"2":1.9,"3":1}}'), "non-integer labels"),
    ),
)
def test_non_integral_json_exits_2(capsys, argv, fragment):
    # int() would truncate 1.9, read true as 1 and iterate "12" as digits
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == "" and fragment in err


def test_long_code_with_one_bad_symbol_gives_a_short_error(capsys, tmp_path):
    symbols = [1] * 99_997
    symbols[50_000] = 1.5
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"symbols": symbols}))
    rc, out, err = run_cli(capsys, "decode", "--variant", "normal", str(path))
    assert rc == 2 and out == ""
    assert len(err.encode()) < 200 and "1.5" in err and "50000" in err


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
    # trials run on one thread, and only a sweep loads multiprocessing, when it forks
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, slithercode, slithercode.cli; "
             "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False False\n"), proc.stderr
