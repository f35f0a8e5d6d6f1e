"""The benchmark's workloads: inputs from a seed, a fixed job, output checks.

A job is a list of operations run one at a time, each a CLI command called
through slithercode.cli.main(argv) with its output captured, or one library
call.  Every operation returns an Outcome; an operation fails when its exit
status is not the one a correct program gives.  check() tests the outputs of
one round against the oracles in oracles.py and against properties the
method must have; it returns a list of error messages.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

from oracles import (chi_square_ok, dice_law, full_binary_law, greedy_capacity_edges, mean,
                     saturation_law)


@dataclass
class Outcome:
    label: str
    rc: int
    out: object
    expect: int = 0

    @property
    def failed(self) -> bool:
        return self.rc != self.expect


class Runner:
    """Runs operations against one imported copy of the package."""

    def __init__(self, cli):
        self.cli = cli

    def cli_op(self, label: str, argv: list, expect: int = 0) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return Outcome(label, rc, out.getvalue(), expect)

    def lib_op(self, label: str, fn) -> Outcome:
        return Outcome(label, 0, fn())


# --- parsing the CLI's text output ---------------------------------------------


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def parse_histogram(text: str) -> tuple:
    """(header dict, {value: count}) from simulate or enumerate text output."""
    header, counts = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            header[key] = value
        elif line.strip():
            fields = line.split()
            counts[int(fields[0])] = int(fields[1])
    return header, counts


def parse_tree_text(text: str) -> tuple:
    """(n, root, parent list) from the 'n root' / 'child parent' text form."""
    lines = text.split("\n")
    n, root = map(int, lines[0].split())
    parent = [0] * (n + 1)
    for line in lines[1:n]:
        child, par = line.split()
        parent[int(child)] = int(par)
    return n, root, parent


def parse_code_text(text: str) -> tuple:
    """(n, symbols) from the 'n variant' header plus symbol line."""
    head, _, body = text.partition("\n")
    return int(head.split()[0]), [int(s) for s in body.split()]


def code_text(n: int, variant: str, symbols: list) -> str:
    return f"{n} {variant}\n" + " ".join(map(str, symbols)) + "\n"


def tree_text(n: int, root: int, parent) -> str:
    rows = [f"{n} {root}"] + [f"{v} {parent[v]}" for v in range(1, n + 1) if v != root]
    return "\n".join(rows) + "\n"


# --- games-mc ---------------------------------------------------------------------

GAMES_TRIALS = 3000
CLT_N, CLT_TRIALS = 2000, 10_000
SIGNIFICANCE = 1e-6          # chi-square test of each dice and full-binary histogram
MEAN_TOLERANCE = 0.005       # |mean/n - limit| for binary-lr and plane at n = 500
CLT_STANDARD_ERRORS = 6.0    # clt mean against the exact mean of the dice law
BINARY_LR_LIMIT = 4 - 2 * math.sqrt(3)
PLANE_LIMIT = (math.sqrt(5) - 1) / 2


class GamesMC:
    name = "games-mc"
    games = (("dice", 2000), ("full-binary", 501), ("binary-lr", 500), ("plane", 500))

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        seeds = [int(s) for s in rng.integers(0, 2 ** 62, size=len(self.games) + 1)]
        return {"seeds": seeds}

    def _simulate(self, game, n, seed, extra=()):
        return ["simulate", "--game", game, "--n", str(n), "--trials", str(GAMES_TRIALS),
                "--seed", str(seed), *extra]

    def job(self, inp: dict, run: Runner) -> list:
        outs = [run.cli_op(game, self._simulate(game, n, seed))
                for (game, n), seed in zip(self.games, inp["seeds"])]
        outs.append(run.cli_op("clt", ["clt", "--n", str(CLT_N), "--trials", str(CLT_TRIALS),
                                       "--seed", str(inp["seeds"][-1])]))
        return outs

    def check(self, inp: dict, outs: list, run: Runner) -> list:
        errors = []
        by_label = {o.label: o for o in outs if not o.failed}
        laws = {"dice": dice_law(2000, exact=False), "full-binary": full_binary_law(250)}
        for game, n in self.games:
            if game not in by_label:
                continue
            header, counts = parse_histogram(by_label[game].out)
            if sum(counts.values()) != GAMES_TRIALS or header.get("trials") != str(GAMES_TRIALS):
                errors.append(f"{game}: histogram does not hold {GAMES_TRIALS} trials")
                continue
            if game in laws:
                ok, stat, threshold = chi_square_ok(counts, laws[game], SIGNIFICANCE)
                if not ok:
                    errors.append(f"{game}: chi-square {stat:.1f} > {threshold:.1f}")
            else:
                limit = BINARY_LR_LIMIT if game == "binary-lr" else PLANE_LIMIT
                if not all(1 <= v <= n for v in counts):
                    errors.append(f"{game}: value outside 1..{n}")
                elif abs(mean(counts) / n - limit) > MEAN_TOLERANCE:
                    errors.append(f"{game}: mean/n {mean(counts) / n:.4f} vs {limit:.4f}")
        if "clt" in by_label:
            rep = parse_kv(by_label["clt"].out)
            exact = mean(laws["dice"])
            se = math.sqrt(float(rep["variance"]) / CLT_TRIALS)
            if abs(float(rep["mean"]) - exact) > CLT_STANDARD_ERRORS * se:
                errors.append(f"clt: mean {rep['mean']} vs exact {exact:.3f} (se {se:.3f})")
        # reproducibility promise: the histogram does not depend on the thread count
        if "dice" in by_label:
            serial = run.cli_op("dice-1-thread", self._simulate(
                "dice", 2000, inp["seeds"][0], ("--threads", "1")))
            if serial.out != by_label["dice"].out:
                errors.append("dice: --threads 1 histogram differs from the default")
        return errors


# --- codec-large --------------------------------------------------------------------

LARGE_N = 100_000

# Each of these should exit 2 (invalid input) and today exits 0.
MALFORMED = (
    ["decode", "--variant", "normal", '{"symbols":[1.5, 2.9]}'],
    ["decode", "--variant", "normal", '{"symbols":[true, 1]}'],
    ["decode", "--variant", "normal", '{"symbols":"12"}'],
    ["params", '{"n":3,"parent":{"2":1.9,"3":1}}'],
)


class CodecLarge:
    name = "codec-large"
    variants = (("normal", 1), ("comply", 2), ("b=3", 3))

    def inputs(self, seed: int) -> dict:
        n = LARGE_N
        rng = np.random.default_rng([seed, 2])
        codes = []
        for variant, b in self.variants:
            symbols = rng.integers(1, n + 1, size=n - 1).tolist()
            codes.append((variant, b, symbols, code_text(n, variant, symbols)))
        order = (rng.permutation(n) + 1).tolist()
        path = [0] * (n + 1)
        for prev, v in zip(order, order[1:]):
            path[v] = prev
        centre = order[0]
        star = [centre] * (n + 1)
        star[0] = star[centre] = 0
        trees = [("path", "comply", 2, centre, path), ("star", "normal", 1, centre, star)]
        trees = [(name, variant, b, root, parent, tree_text(n, root, parent))
                 for name, variant, b, root, parent in trees]
        return {"n": n, "codes": codes, "trees": trees}

    def job(self, inp: dict, run: Runner) -> list:
        from slithercode import cli, trees

        def path_cover(text):
            return lambda: trees.path_cover_decomposition(cli.parse_tree(text))

        outs = []
        for variant, b, _, code in inp["codes"]:
            dec = run.cli_op(f"decode {variant}", ["decode", "--variant", variant, code])
            outs += [dec,
                     run.cli_op(f"encode {variant}", ["encode", "--variant", variant, dec.out]),
                     run.cli_op(f"read {variant}", ["read", "--variant", variant, code]),
                     run.cli_op(f"params {variant}", ["params", "--b", str(b), dec.out]),
                     run.lib_op(f"path-cover {variant}", path_cover(dec.out))]
        for name, variant, b, _, _, text in inp["trees"]:
            enc = run.cli_op(f"encode {name}", ["encode", "--variant", variant, text])
            dec = run.cli_op(f"decode {name}", ["decode", "--variant", variant, enc.out])
            outs += [enc, dec,
                     run.cli_op(f"read {name}", ["read", "--variant", variant, enc.out]),
                     run.cli_op(f"params {name}", ["params", "--b", str(b), text]),
                     run.lib_op(f"path-cover {name}", path_cover(dec.out))]
        outs += [run.cli_op(f"malformed {i}", argv, expect=2) for i, argv in enumerate(MALFORMED)]
        return outs

    def check(self, inp: dict, outs: list, run: Runner) -> list:
        errors = []
        by_label = {o.label: o for o in outs if not o.failed}
        n = inp["n"]
        items = [(variant, b, symbols) for variant, b, symbols, _ in inp["codes"]]
        items += [(name, b, (root, parent)) for name, _, b, root, parent, _ in inp["trees"]]
        for item, b, given in items:
            have = lambda op: f"{op} {item}" in by_label
            if not have("decode"):
                continue
            n_dec, root, parent = parse_tree_text(by_label[f"decode {item}"].out)
            if n_dec != n:
                errors.append(f"decode {item}: n = {n_dec}")
                continue
            greedy = {k: greedy_capacity_edges(n, root, parent, k) for k in {1, 2, b}}
            if isinstance(given, tuple):
                if (root, parent) != given:
                    errors.append(f"{item}: decode(encode(tree)) is not the tree")
            elif have("encode") and parse_code_text(by_label[f"encode {item}"].out) != (n, given):
                errors.append(f"{item}: encode(decode(code)) is not the code")
            if have("read"):
                errors += self._check_read(item, b, parse_kv(by_label[f"read {item}"].out),
                                           n, root, parent, greedy)
            if have("params"):
                errors += self._check_params(item, b, by_label[f"params {item}"].out,
                                             n, root, greedy)
            if have("path-cover"):
                errors += self._check_path_cover(item, by_label[f"path-cover {item}"].out,
                                                 n, parent, greedy[2])
        return errors

    @staticmethod
    def _check_read(item, b, rd, n, root, parent, greedy) -> list:
        if b == 1:
            p_set = set(map(int, rd["p_set"].split()))
            matching = greedy[1]
            ok = (int(rd["matching"]) == matching and int(rd["alpha"]) == n - matching
                  and int(rd["root"]) == root and len(p_set) == n - matching
                  and rd["root_class"] == ("P" if root in p_set else "N")
                  and not any(parent[v] in p_set for v in p_set))
        elif b == 2:
            ok = (int(rd["path_edges"]) == greedy[2]
                  and int(rd["path_cover"]) == n - greedy[2])
        else:
            ok = int(rd["capacity_edges"]) == greedy[b]
        return [] if ok else [f"read {item}: {rd} disagrees with the greedy oracle"]

    @staticmethod
    def _check_params(item, b, text, n, root, greedy) -> list:
        pr = parse_kv(text)
        want = {"n": n, "root": root, "independence": n - greedy[1], "matching": greedy[1],
                "path_edges": greedy[2], "path_cover": n - greedy[2], "b": b,
                "capacity_edges": greedy[b]}
        got = {k: int(pr[k]) for k in want}
        labels = pr["classification[normal]"].split()
        p_count = sum(1 for lab in labels if lab.endswith(":P"))
        if got != want or len(labels) != n or p_count != want["independence"]:
            return [f"params {item}: {got} vs greedy {want}"]
        return []

    @staticmethod
    def _check_path_cover(item, paths, n, parent, path_edges) -> list:
        seen = sorted(v for path in paths for v in path)
        adjacent = all(parent[u] == w or parent[w] == u
                       for path in paths for u, w in zip(path, path[1:]))
        if seen != list(range(1, n + 1)) or not adjacent or len(paths) != n - path_edges:
            return [f"path-cover {item}: not a partition into {n - path_edges} tree paths"]
        return []


# --- exact-small ------------------------------------------------------------------------

SMALL_N, TABLE_N = 7, 300


class ExactSmall:
    name = "exact-small"

    def inputs(self, seed: int) -> dict:
        # The sweeps are exhaustive, so no input depends on the seed.
        return {}

    def job(self, inp: dict, run: Runner) -> list:
        return [
            run.cli_op("independence", ["enumerate", "--parameter", "independence",
                                        "--n", str(SMALL_N)]),
            run.cli_op("path-cover", ["enumerate", "--parameter", "path-cover",
                                      "--n", str(SMALL_N)]),
            run.cli_op("closed-form", ["enumerate", "--n", str(TABLE_N)]),
            run.cli_op("verify", ["verify", "--level", "quick"]),
        ]

    def check(self, inp: dict, outs: list, run: Runner) -> list:
        n = SMALL_N
        want = {
            "independence": (n ** (n - 1), dice_law(n)),
            "path-cover": (n ** (n - 1),
                           {n - e: c for e, c in saturation_law(n, 2).items()}),
            "closed-form": (TABLE_N ** (TABLE_N - 2), dice_law(TABLE_N)),
        }
        errors = []
        for o in outs:
            if o.failed:
                continue
            if o.label == "verify":
                lines = o.out.strip().splitlines()
                passed, _, total = lines[-1].split()[0].partition("/")
                if passed != total or not all(ln.startswith("PASS") for ln in lines[:-1]):
                    errors.append(f"verify: {lines[-1]}")
                continue
            total, counts = want[o.label]
            header, got = parse_histogram(o.out)
            if o.label == "closed-form":
                # unrooted counts; each tree has TABLE_N choices of root
                got = {a: c * TABLE_N for a, c in got.items()}
            if got != dict(sorted(counts.items())) or header.get("total") != str(total):
                errors.append(f"{o.label}: table differs from the recursion's counts")
        return errors


WORKLOADS = {w.name: w for w in (GamesMC(), CodecLarge(), ExactSmall())}
