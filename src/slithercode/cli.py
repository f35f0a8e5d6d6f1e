"""Command line front end.

Formats
  tree text:   first line "n root", then one "child parent" line per edge;
               blank lines and #-comments ignored
  tree json:   {"n": int, "root": int, "parent": {"child": parent, ...}}
  code text:   "n variant" header line plus the space-separated symbols,
               or a bare symbol sequence (n taken as length+1 unless --n)
  code json:   {"n": int, "variant": str, "symbols": [int, ...]}

The input argument of encode/decode/params/read is a file path if one
exists, "-" for stdin, and otherwise is parsed as literal data.
--variant is always explicit on code-level commands: normal, comply, or
b=K.  Exit status: 0 success, 2 invalid input or arguments, 1 internal
failure or failed verification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import permutations

from . import asymptotics, codec, counting, games, trees
from .codec import CodeError, SlitherCode
from .trees import NORMAL, TreeError, Variant, _strict_int, validate_tree

# --- serialization ----------------------------------------------------------


def tree_to_text(tree: trees.RootedTree) -> str:
    lines = [f"{tree.n} {tree.root}"]
    lines += [f"{c} {p}" for c, p in sorted(tree.parent.items())]
    return "\n".join(lines) + "\n"


def tree_to_json_dict(tree: trees.RootedTree) -> dict:
    return {"n": tree.n, "root": tree.root,
            "parent": {str(c): p for c, p in sorted(tree.parent.items())}}


def parse_tree(text: str) -> trees.RootedTree:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return validate_tree(json.loads(stripped))
    rows = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows:
        raise TreeError("empty tree input")
    head = rows[0].split()
    if len(head) != 2:
        raise TreeError(f"first line must be 'n root', got {rows[0]!r}")
    pairs = []
    for r in rows[1:]:
        tok = r.split()
        if len(tok) != 2:
            raise TreeError(f"expected 'child parent', got {r!r}")
        pairs.append((tok[0], tok[1]))
    return validate_tree({"n": head[0], "root": head[1], "parent": pairs})


def code_to_text(code: SlitherCode) -> str:
    lines = [f"{code.n} {code.variant.name}"]
    if code.symbols:
        lines.append(" ".join(map(str, code.symbols)))
    return "\n".join(lines) + "\n"


def _is_int(tok: str) -> bool:
    try:
        int(tok)
        return True
    except ValueError:
        return False


def parse_code(text: str, variant: Variant, n_flag: int | None) -> SlitherCode:
    stripped = text.lstrip()
    header_n, header_variant = None, None
    if stripped.startswith("{"):
        d = json.loads(stripped)
        symbols = d.get("symbols", [])
        if not isinstance(symbols, list):
            raise CodeError(f"symbols must be a JSON list, got {symbols!r}")
        if "variant" in d:
            header_variant = Variant.parse(str(d["variant"]))
        if "n" in d:
            header_n = _strict_int(d["n"], "n")
    else:
        rows = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
        rows = [r for r in rows if r]
        if rows:
            head = rows[0].split()
            if len(head) == 2 and _is_int(head[0]) and not _is_int(head[1]):
                header_n = int(head[0])
                header_variant = Variant.parse(head[1])
                rows = rows[1:]
        toks = [t for r in rows for t in r.split()]
        bad = [t for t in toks if not _is_int(t)]
        if bad:
            raise CodeError(f"non-integer symbol {bad[0]!r}")
        symbols = [int(t) for t in toks]
    if header_variant is not None and header_variant != variant:
        raise CodeError(
            f"input declares variant {header_variant.name}, --variant says {variant.name}")
    if n_flag is not None and header_n is not None and n_flag != header_n:
        raise CodeError(f"input declares n={header_n}, --n says {n_flag}")
    n = n_flag if n_flag is not None else (header_n if header_n is not None
                                           else len(symbols) + 1)
    return SlitherCode(n=n, variant=variant, symbols=tuple(symbols))


def read_input(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    if os.path.isfile(source):
        with open(source) as fh:
            return fh.read()
    return source


def emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def emit_kv(obj: dict) -> None:
    for k, v in obj.items():
        print(f"{k}: {v}")


def resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    seed = games.fresh_seed()
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def resolve_threads(flag: int | None) -> int:
    """The --threads value; trials run on one thread, so it can only be 1."""
    if flag not in (None, 1):
        raise ValueError(f"--threads accepts only 1, trials run on one thread; got {flag}")
    return 1


# --- subcommands ------------------------------------------------------------


def cmd_encode(args) -> int:
    tree = parse_tree(read_input(args.input))
    code, aux = codec.slither_encode(tree, args.variant)
    if args.format == "json":
        emit_json({"n": code.n, "variant": code.variant.name,
                   "symbols": list(code.symbols), "auxiliary": list(aux)})
    else:
        sys.stdout.write(code_to_text(code))
    return 0


def cmd_decode(args) -> int:
    code = parse_code(read_input(args.input), args.variant, args.n)
    tree = codec.slither_decode(code)
    if args.format == "json":
        emit_json(tree_to_json_dict(tree))
    else:
        sys.stdout.write(tree_to_text(tree))
    return 0


def cmd_params(args) -> int:
    tree = parse_tree(read_input(args.input))
    b = args.b
    pm_normal = trees.classify(tree, NORMAL)
    pm_comply = trees.classify(tree, Variant(2))
    alpha = len(pm_normal.p_set())
    path_edges = pm_comply.capacity_edges()
    out = {
        "n": tree.n,
        "root": tree.root,
        "independence": alpha,
        "matching": tree.n - alpha,
        "path_edges": path_edges,
        "path_cover": tree.n - path_edges,
        "b": b,
        "capacity_edges": trees.max_capacity_edges(tree, b),
        "classification": {"normal": pm_normal.labels(), "comply": pm_comply.labels()},
    }
    if args.format == "json":
        emit_json(out)
    else:
        for k, v in out.items():
            if k == "classification":
                for name, labs in v.items():
                    row = " ".join(f"{vv}:{ll}" for vv, ll in labs.items())
                    print(f"classification[{name}]: {row}")
            else:
                print(f"{k}: {v}")
    return 0


def cmd_read(args) -> int:
    code = parse_code(read_input(args.input), args.variant, args.n)
    b = code.variant.b
    if b == 1:
        rr = codec.read_root_and_pset(code)
        beta, matching = codec.read_matching_via_beta(code)
        out = {"n": code.n, "variant": "normal", "alpha": rr.alpha,
               "beta": beta, "matching": matching, "root": rr.root,
               "root_class": rr.root_class, "p_set": sorted(rr.p_set)}
    elif b == 2:
        beta, edges = codec.read_path_edges(code)
        out = {"n": code.n, "variant": "comply", "beta": beta,
               "path_edges": edges, "path_cover": code.n - edges}
    else:
        beta, edges = codec.read_capacity_edges(code, b)
        out = {"n": code.n, "variant": code.variant.name, "b": b,
               "beta": beta, "capacity_edges": edges}
    if args.format == "json":
        emit_json(out)
    else:
        emit_kv({k: (" ".join(map(str, v)) if isinstance(v, list) else v)
                 for k, v in out.items()})
    return 0


def cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    seed = resolve_seed(args.seed)
    n = args.n
    if args.family == "uniform":
        draw = lambda rng: games.sample_uniform_rooted_tree(n, args.variant, rng)
    elif args.family == "full-binary":
        m = games.full_binary_m(n)
        draw = lambda rng: codec.decode_sequence(games.full_binary_deal(m, rng), n)
    elif args.family == "binary-lr":
        draw = lambda rng: codec.decode_sequence(games.binary_lr_deal(n, rng), n)
    else:
        raise ValueError(
            "the plane family has no tree codec here; plane supports simulate only")
    source = games.RandomSource(seed)
    sampled = [draw(source.trial_rng(i)) for i in range(args.count)]
    if args.format == "json":
        if args.count == 1:
            emit_json(tree_to_json_dict(sampled[0]))
        else:
            emit_json([tree_to_json_dict(t) for t in sampled])
    else:
        sys.stdout.write("\n".join(tree_to_text(t) for t in sampled))
    return 0


def cmd_simulate(args) -> int:
    resolve_threads(args.threads)
    seed = resolve_seed(args.seed)
    game = args.game
    if game == "cards":
        if args.deck is None:
            raise ValueError("--deck is required for the cards game")
        mult = tuple(int(t) for t in args.deck.replace(",", " ").split())
        deck = games.Deck(n=len(mult), multiplicities=mult)
        if args.n is not None and args.n != deck.n:
            raise ValueError(f"--n {args.n} disagrees with deck size n={deck.n}")
        n = deck.n
        trial = lambda rng: games.card_trial(deck, rng)
    else:
        if args.n is None:
            raise ValueError(f"--n is required for the {game} game")
        n = args.n
        if game == "dice":
            trial = lambda rng: games.dice_trial(n, rng)
        elif game == "full-binary":
            m = games.full_binary_m(n)
            trial = lambda rng: games.full_binary_trial(m, rng)
        elif game == "binary-lr":
            trial = lambda rng: games.binary_lr_trial(n, rng)
        else:
            trial = lambda rng: games.plane_trial(n, rng)
    hist = games.run_trials(trial, args.trials, seed, n=n, parameter="alpha")
    if args.format == "json":
        emit_json(hist.to_json_dict())
    else:
        print(f"# game {game}")
        for k in ("n", "parameter", "trials", "seed"):
            print(f"# {k} {getattr(hist, k)}")
        for v, c in sorted(hist.counts.items()):
            print(f"{v} {c}")
    return 0


def _emit_table(table: counting.DistributionTable, fmt: str) -> None:
    if fmt == "json":
        emit_json(table.to_json_dict())
        return
    print(f"# family {table.family}")
    print(f"# parameter {table.parameter}")
    print(f"# n {table.n}")
    print(f"# total {table.total}")
    total = table.total
    for v, c in sorted(table.counts.items()):
        print(f"{v} {c} {c / total:.9g}")


# Bounds both closed-form tables.  The unrooted one memoizes the Stirling
# triangle up to n: about 230 MB at n = 1000 and 1.7 GB at n = 2000.
_CLOSED_FORM_MAX_N = 1000


def cmd_enumerate(args) -> int:
    if args.parameter is None and args.n > _CLOSED_FORM_MAX_N:
        raise ValueError(f"closed-form tables are bounded at --n {_CLOSED_FORM_MAX_N}, "
                         f"got {args.n}")
    if args.family == "full-binary":
        if args.parameter is not None:
            raise ValueError("full-binary enumeration is the deck-read table; "
                             "--parameter applies to the uniform family")
        table = counting.full_binary_table(games.full_binary_m(args.n))
    elif args.parameter is None:
        table = counting.independence_table(args.n)
    else:
        table = counting.exact_rooted_distribution(
            args.n, args.parameter.replace("-", "_"), b=args.b)
    _emit_table(table, args.format)
    return 0


def cmd_constants(args) -> int:
    rep = asymptotics.constants().to_json_dict()
    if args.format == "json":
        emit_json(rep)
    else:
        width = max(map(len, rep))
        for k, v in rep.items():
            print(f"{k:<{width}}  {v}")
    return 0


def cmd_clt(args) -> int:
    seed = resolve_seed(args.seed)
    rep = asymptotics.clt_check(args.n, args.trials, seed)
    if args.format == "json":
        emit_json(rep.to_json_dict())
    else:
        emit_kv(rep.to_json_dict())
    return 0


# --- verify -----------------------------------------------------------------


def _verify_worked_example(full: bool):
    tree = validate_tree({"n": 10, "root": 9, "parent": {
        5: 9, 2: 5, 3: 5, 1: 2, 7: 3, 6: 1, 8: 1, 4: 6, 10: 4}})
    code, aux = codec.slither_encode(tree, NORMAL)
    code2, _ = codec.slither_encode(tree, Variant(2))
    rr = codec.read_root_and_pset(code)
    ok = (code.symbols == (3, 1, 4, 1, 5, 9, 2, 6, 5)
          and aux == (7, 8, 10, 6, 2, 5, 1, 4, 3)
          and code2.symbols == (3, 5, 1, 4, 6, 1, 5, 9, 2)
          and codec.slither_decode(code) == tree
          and codec.slither_decode(code2) == tree
          and codec.read_alpha(code) == 6
          and (rr.root, rr.root_class) == (9, "P")
          and rr.p_set == frozenset({2, 6, 7, 8, 9, 10})
          and codec.read_matching_via_beta(code) == (5, 4)
          and codec.read_path_edges(code2) == (7, 7)
          and len(trees.path_cover_decomposition(tree)) == 3)
    return ok, "10-vertex reference tree, both variants"


def _verify_bijection(full: bool):
    nmax = 5 if full else 4
    for b in (1, 2, 3):
        for n in range(1, nmax + 1):
            seen = set()
            for digits in counting.all_codes(n):
                t = codec.slither_decode(SlitherCode(n=n, variant=Variant(b),
                                                     symbols=digits))
                if t.key() in seen:
                    return False, f"decode collision at n={n} b={b}"
                seen.add(t.key())
                back, _ = codec.slither_encode(t, Variant(b))
                if back.symbols != digits:
                    return False, f"round trip failed at n={n} b={b} {digits}"
    return True, f"all codes, b in 1..3, n <= {nmax}"


def _verify_reads(full: bool):
    nmax = 6 if full else 5
    for n in range(2, nmax + 1):
        for digits in counting.all_codes(n):
            t = codec.decode_sequence(digits, n)
            pm = trees.classify(t, NORMAL)
            code = SlitherCode(n=n, variant=NORMAL, symbols=digits)
            if codec.read_alpha(code) != len(pm.p_set()):
                return False, f"alpha read wrong for {digits} n={n}"
            rr = codec.read_root_and_pset(code)
            if (rr.root != t.root or rr.p_set != pm.p_set()
                    or rr.root_class != ("P" if pm.is_p(t.root) else "N")):
                return False, f"root/p-set read wrong for {digits} n={n}"
            if codec.read_matching_via_beta(code)[1] != n - len(pm.p_set()):
                return False, f"matching read wrong for {digits} n={n}"
            for b in (2, 3):
                tb = codec.decode_sequence(digits, n, Variant(b))
                want = trees.classify(tb, Variant(b)).capacity_edges()
                got = codec.read_capacity_edges(
                    SlitherCode(n=n, variant=Variant(b), symbols=digits), b)[1]
                if got != want:
                    return False, f"capacity read wrong for {digits} n={n} b={b}"
    return True, f"alpha, root, p-set, matching, capacity reads, n <= {nmax}"


def _verify_counting(full: bool):
    nmax = 6 if full else 5
    for n in range(2, nmax + 1):
        table = counting.exact_rooted_distribution(n, "independence")
        for a, c in table.counts.items():
            if c != counting.count_independence(n, a) * n:
                return False, f"rooted count mismatch n={n} alpha={a}"
        if counting.exact_dice_distribution(n).counts != table.counts:
            return False, f"dice law differs from tree law at n={n}"
    for n in range(2, 41):
        counting.independence_table(n)  # raises if the total identity fails
    for n in range(2, 13):
        lhs = counting.expected_alpha(n)
        rhs = counting.independence_table(n).mean()
        if lhs != rhs:
            return False, f"expectation identity fails at n={n}"
    return True, f"closed forms vs exhaustive (n <= {nmax}), totals to n=40"


def _verify_full_binary(full: bool):
    mmax = 4 if full else 3
    for m in range(1, mmax + 1):
        deck = [i for i in range(1, m + 1) for _ in range(2)]
        tally: dict[int, int] = {}
        for deal in set(permutations(deck)):
            a = games.coupon_read(deal, 2 * m + 1)
            tally[a] = tally.get(a, 0) + 1
        if tally != counting.full_binary_table(m).counts:
            return False, f"deck table mismatch at m={m}"
    for m in range(1, 9):
        counting.full_binary_table(m)  # raises if the total identity fails
    return True, f"exhaustive deals m <= {mmax}, totals to m=8"


def _verify_capacity_oracle(full: bool):
    nmax = 6 if full else 5
    for n in range(2, nmax + 1):
        for digits in counting.all_codes(n):
            t = codec.decode_sequence(digits, n)
            for b in (1, 2, 3):
                if trees.max_capacity_edges(t, b) != trees.bf_max_capacity_edges(t, b):
                    return False, f"formula vs brute force differs n={n} b={b}"
    rng_count = 2000 if full else 300
    source = games.RandomSource(1851)
    for i in range(rng_count):
        rng = source.trial_rng(i)
        n = int(rng.integers(7, 13))
        t = games.sample_uniform_rooted_tree(n, NORMAL, rng)
        if trees.bf_max_independent(t) != trees.independence_number(t):
            return False, f"independence mismatch on random tree {t}"
        for b in (1, 2, 3):
            if trees.max_capacity_edges(t, b) != trees.bf_max_capacity_edges(t, b):
                return False, f"capacity mismatch on random tree {t} b={b}"
    return True, f"exhaustive n <= {nmax} plus {rng_count} random trees, b in 1..3"


def _verify_constants(full: bool):
    c = asymptotics.constants()
    checks = [
        abs(c.rho - math.exp(-c.rho)) < 1e-14,
        abs(c.full_binary_mean - (2 - math.sqrt(2))) < 1e-12,
        abs(c.binary_lr_mean - (4 - 2 * math.sqrt(3))) < 1e-12,
        abs(c.plane_mean - (math.sqrt(5) - 1) / 2) < 1e-12,
        abs(c.full_binary_variance_coeff - (17 / 2 - 6 * math.sqrt(2))) < 1e-10,
        abs(c.t0 - (1 + c.t0) * math.exp(-c.t0)) < 1e-14,
        abs(c.sigma2 - 0.0256803222936) < 1e-10,
        abs(c.path_cover_coeff - 0.2528989726646) < 1e-10,
    ]
    return all(checks), "fixed points vs closed forms"


def _verify_sampling(full: bool):
    if not full:
        return True, "skipped at quick level"
    c = asymptotics.constants()
    h = games.run_trials(lambda rng: games.dice_trial(400, rng), 20_000, 97,
                         n=400, parameter="alpha")
    if abs(h.mean() / 400 - c.rho) > 0.01:
        return False, f"dice mean/n {h.mean() / 400:.4f} far from rho"
    h6 = games.run_trials(lambda rng: games.dice_trial(6, rng), 20_000, 98,
                          n=6, parameter="alpha")
    if games.tv_distance(h6, counting.exact_dice_distribution(6)) > 0.02:
        return False, "dice n=6 tv distance too large"
    pairs = [(games.binary_lr_trial, c.binary_lr_mean),
             (games.plane_trial, c.plane_mean)]
    for trial, want in pairs:
        h = games.run_trials(lambda rng: trial(300, rng), 10_000, 99,
                             n=300, parameter="alpha")
        if abs(h.mean() / 300 - want) > 0.03:
            return False, f"{trial.__name__} mean/n {h.mean() / 300:.4f} far from {want:.4f}"
    hfb = games.run_trials(lambda rng: games.full_binary_trial(3, rng), 20_000, 100,
                           n=7, parameter="alpha")
    if games.tv_distance(hfb, counting.full_binary_table(3)) > 0.02:
        return False, "full-binary m=3 tv distance too large"
    return True, "simulated means/laws against exact references"


_VERIFY_SUITE = [
    ("worked-example", _verify_worked_example),
    ("bijection-sweep", _verify_bijection),
    ("reading-rules", _verify_reads),
    ("counting-formulas", _verify_counting),
    ("full-binary-decks", _verify_full_binary),
    ("capacity-oracle", _verify_capacity_oracle),
    ("constants", _verify_constants),
    ("sampling-statistics", _verify_sampling),
]


def cmd_verify(args) -> int:
    full = args.level == "full"
    failures = 0
    for name, fn in _VERIFY_SUITE:
        try:
            ok, detail = fn(full)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"crashed: {exc!r}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(_VERIFY_SUITE) - failures}/{len(_VERIFY_SUITE)} checks passed "
          f"({args.level} level)")
    return 0 if failures == 0 else 1


# --- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slithercode",
        description="Slither codes: tree/sequence bijections, parameter reads, "
                    "samplers, exact enumeration, and limit checks.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def fmt(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")

    def variant(p, required=True):
        p.add_argument("--variant", type=Variant.parse, required=required,
                       metavar="{normal|comply|b=K}",
                       help="game variant; always explicit, no default")

    p = sub.add_parser("encode", help="rooted tree -> slither code")
    p.add_argument("input", nargs="?", default="-",
                   help="tree as file, literal, or - for stdin (default stdin)")
    variant(p)
    fmt(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="slither code -> rooted tree")
    p.add_argument("input", nargs="?", default="-")
    variant(p)
    p.add_argument("--n", type=int, default=None,
                   help="vertex count; default from header or length+1")
    fmt(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("params", help="tree parameters and classifications")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--b", type=int, default=2, help="capacity for capacity_edges (default 2)")
    fmt(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("read", help="read parameters off a code without decoding")
    p.add_argument("input", nargs="?", default="-")
    variant(p)
    p.add_argument("--n", type=int, default=None)
    fmt(p)
    p.set_defaults(func=cmd_read)

    p = sub.add_parser("sample", help="draw random trees")
    p.add_argument("--family", choices=("uniform", "full-binary", "binary-lr", "plane"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=None,
                   help="omit to draw one from system entropy (echoed to stderr)")
    p.add_argument("--variant", type=Variant.parse, default=NORMAL,
                   metavar="{normal|comply|b=K}",
                   help="decode variant for the uniform family (default normal; "
                        "does not change the distribution)")
    fmt(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("simulate", help="run game trials, output a histogram")
    p.add_argument("--game", choices=("dice", "cards", "full-binary", "binary-lr", "plane"),
                   required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--deck", type=str, default=None,
                   help="cards game: n multiplicities summing to n-1, e.g. '2 2 0 0 0 0 0'")
    p.add_argument("--threads", type=int, default=None,
                   help="trials run on one thread; only 1 is accepted, kept for old scripts")
    fmt(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enumerate", help="exact distribution tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("uniform", "full-binary"), default="uniform")
    p.add_argument("--parameter", default=None,
                   choices=("independence", "matching", "path-edges", "path-cover",
                            "capacity-edges"),
                   help="rooted exhaustive sweep (n <= 7); default: closed-form "
                        "unrooted independence table")
    p.add_argument("--b", type=int, default=2, help="capacity for capacity-edges")
    fmt(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("constants", help="limit constants, 15 significant digits")
    fmt(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("clt", help="dice game vs limiting normal law")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    fmt(p)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("verify", help="self-check against oracles and references")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify)

    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except (ValueError, KeyError) as exc:  # TreeError/CodeError/JSON errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
