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
import os
import sys

from . import asymptotics, codec, counting, games, trees, verify
from .codec import CodeError, SlitherCode
from .trees import NORMAL, TreeError, Variant, _strict_int, validate_tree

# --- serialization ----------------------------------------------------------


def tree_to_text(tree: trees.RootedTree) -> str:
    """'n root', then a 'child parent' row per child by label, all in one format call."""
    parent, root = tree.parent, tree.root
    kids = [*range(1, root), *range(root + 1, tree.n + 1)]
    rows = [0] * (2 * len(kids))
    rows[::2], rows[1::2] = kids, map(parent.__getitem__, kids)
    return f"{tree.n} {root}\n" + ("%d %d\n" * len(kids)) % tuple(rows)


def tree_to_json_dict(tree: trees.RootedTree) -> dict:
    return {"n": tree.n, "root": tree.root,
            "parent": {str(c): p for c, p in sorted(tree.parent.items())}}


def _rows(text: str) -> list[str]:
    """The non-blank lines of text, stripped, with #-comments removed."""
    lines = text.splitlines()
    if "#" in text:
        lines = [ln.split("#", 1)[0] for ln in lines]
    return list(filter(None, map(str.strip, lines)))


def parse_tree(text: str) -> trees.RootedTree:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return validate_tree(json.loads(stripped))
    rows = _rows(text)
    if not rows:
        raise TreeError("empty tree input")
    head = rows[0].split()
    if len(head) != 2:
        raise TreeError(f"first line must be 'n root', got {rows[0]!r}")
    if set(map(len, map(str.split, rows[1:]))) - {2}:
        r = next(r for r in rows[1:] if len(r.split()) != 2)
        raise TreeError(f"expected 'child parent', got {r!r}")
    toks = " ".join(rows).split()
    return validate_tree({"n": head[0], "root": head[1],
                          "parent": zip(toks[2::2], toks[3::2])})


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
        rows = _rows(text)
        if rows:
            head = rows[0].split()
            if len(head) == 2 and _is_int(head[0]) and not _is_int(head[1]):
                header_n = int(head[0])
                header_variant = Variant.parse(head[1])
                rows = rows[1:]
        toks = " ".join(rows).split()
        try:
            symbols = list(map(int, toks))
        except ValueError:
            bad = next(t for t in toks if not _is_int(t))
            raise CodeError(f"non-integer symbol {bad!r}") from None
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
                    row = " ".join(map("{}:{}".format, labs, labs.values()))
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


# Bounds --n of sample, simulate and clt; a decode holds about 240 B per vertex.
_SAMPLE_MAX_N = 10**6


def _check_n(n: int | None) -> None:
    if n is not None and n > _SAMPLE_MAX_N:
        raise ValueError(f"--n is bounded at {_SAMPLE_MAX_N}, got {n}")


def cmd_sample(args) -> int:
    _check_n(args.n)
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
    _check_n(args.n)
    resolve_threads(args.threads)
    seed = resolve_seed(args.seed)
    game = args.game
    if game == "cards":
        if args.deck is None:
            raise ValueError("--deck is required for the cards game")
        toks = tuple(args.deck.replace(",", " ").split())
        try:  # Deck reads each token strictly
            deck = games.Deck(n=len(toks), multiplicities=toks)
        except ValueError as exc:
            raise ValueError(f"--deck {args.deck!r}: {exc}") from None
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
    _check_n(args.n)
    seed = resolve_seed(args.seed)
    rep = asymptotics.clt_check(args.n, args.trials, seed)
    if args.format == "json":
        emit_json(rep.to_json_dict())
    else:
        emit_kv(rep.to_json_dict())
    return 0


def cmd_verify(args) -> int:
    passed = total = 0
    for name, ok, detail in verify.run(args.level):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        passed += ok
        total += 1
    print(f"{passed}/{total} checks passed ({args.level} level)")
    return 0 if passed == total else 1


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
    except (ValueError, KeyError, OSError) as exc:  # TreeError/CodeError/JSON errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
