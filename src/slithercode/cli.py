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
failure or failed verification, 141 (128 + SIGPIPE) when the reader closes
stdout before the output ends.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import asymptotics, codec, counting, games, trees, verify
from .codec import CodeError, SlitherCode
from .trees import (NORMAL, TreeError, Variant, _INT_TEXT, _bulk_ints, _check_positive, _cut,
                    _echo, _sequence, _strict_int, validate_tree)

# --- serialization ----------------------------------------------------------


def tree_to_text(tree: trees.RootedTree) -> str:
    """'n root', then a 'child parent' row per child by label, all in one format call."""
    parent, root = tree.parent, tree.root
    kids = [*range(1, root), *range(root + 1, tree.n + 1)]
    rows = [0] * (2 * len(kids))
    rows[::2], rows[1::2] = kids, parent[1:root] + parent[root + 1:]
    return f"{tree.n} {root}\n" + ("%d %d\n" * len(kids)) % tuple(rows)


def tree_to_json_dict(tree: trees.RootedTree) -> dict:
    return {"n": tree.n, "root": tree.root,
            "parent": {str(c): p for c, p in tree.edges()}}


def _rows(text: str) -> list[str]:
    """The non-blank lines of text, stripped, with #-comments removed."""
    lines = text.splitlines()
    if "#" in text:
        lines = [ln.split("#", 1)[0] for ln in lines]
    return list(filter(None, map(str.strip, lines)))


def _load_json(text: str):
    """json.loads, with input nested too deeply for the decoder refused as invalid."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input nests arrays or objects too deeply to read") from None


def parse_tree(text: str) -> trees.RootedTree:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return validate_tree(_load_json(stripped))
    ints = _bulk_ints(text, pairs=True)
    if ints is not None and len(ints):  # plain rows of 2 tokens; the rest reads below
        return validate_tree({"n": int(ints[0]), "root": int(ints[1]),
                              "parent": ints[2:].reshape(-1, 2)})
    rows = _rows(text)
    if not rows:
        raise TreeError("empty tree input")
    head = rows[0].split()
    if len(head) != 2:
        raise TreeError(f"first line must be 'n root', got {_echo(rows[0])}")
    if set(map(len, map(str.split, rows[1:]))) - {2}:
        r = next(r for r in rows[1:] if len(r.split()) != 2)
        raise TreeError(f"expected 'child parent', got {_echo(r)}")
    toks = " ".join(rows).split()
    return validate_tree({"n": head[0], "root": head[1],
                          "parent": zip(toks[2::2], toks[3::2])})


def code_to_text(code: SlitherCode) -> str:
    lines = [f"{code.n} {code.variant.name}"]
    if code.symbols:
        lines.append(" ".join(map(str, code.symbols)))
    return "\n".join(lines) + "\n"


def parse_code(text: str, variant: Variant, n_flag: int | None) -> SlitherCode:
    stripped = text.lstrip()
    header_n, header_variant = None, None
    if stripped.startswith("{"):
        d = _load_json(stripped)
        symbols = _sequence(d.get("symbols", []), "symbols", CodeError)
        if "variant" in d:
            if not isinstance(d["variant"], str):
                raise CodeError(f"variant must be a string, got {_echo(d['variant'])}")
            header_variant = Variant.parse(d["variant"])
        if "n" in d:
            header_n = _strict_int(d["n"], "n")
    else:
        rows = _rows(text)
        if rows:
            head = rows[0].split()
            if (len(head) == 2 and _INT_TEXT.fullmatch(head[0])
                    and not _INT_TEXT.fullmatch(head[1])):
                header_n = _strict_int(head[0], "n")
                header_variant = Variant.parse(head[1])
                rows = rows[1:]
        body = "\n".join(rows)
        ints = _bulk_ints(body)  # on None, SlitherCode reads the tokens strictly
        symbols = body.split() if ints is None else ints.tolist()
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


def _write_out(text: str) -> None:
    """Write text to stdout in full, or raise.

    Unbuffered (python -u, PYTHONUNBUFFERED), stdout's byte layer is a raw
    file, which may take only part of a write to a pipe; the text layer drops
    that count, so a reader that closed the pipe mid-write would lose the
    rest without an error.  Writing again until the count is reached raises
    BrokenPipeError instead.
    """
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]


def kv_text(obj: dict) -> str:
    """One 'key: value' line per entry, a list's items space-separated."""
    return "".join(f"{k}: {' '.join(map(str, v)) if isinstance(v, list) else v}\n"
                   for k, v in obj.items())


def table_text(obj, keys, rows) -> str:
    """A '# key value' line per key, its value obj's attribute, then each row space-separated."""
    return ("".join(f"# {k} {getattr(obj, k)}\n" for k in keys)
            + "".join(" ".join(map(str, row)) + "\n" for row in rows))


def _params_text(out: dict, maps: dict):
    """kv_text(out), then a classification row per map, each built once the last is written."""
    yield kv_text(out)
    for name, pm in maps.items():
        cells = [0] * (2 * pm.n)
        cells[::2], cells[1::2] = range(1, pm.n + 1), pm.label_list()
        yield f"classification[{name}]: " + " ".join(["%d:%s"] * pm.n) % tuple(cells) + "\n"


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


def cmd_encode(args):
    tree = parse_tree(read_input(args.input))
    code, aux = codec.slither_encode(tree, args.variant)
    if args.format == "json":
        return {"n": code.n, "variant": code.variant.name,
                "symbols": list(code.symbols), "auxiliary": list(aux)}
    return code_to_text(code)


def cmd_decode(args):
    code = parse_code(read_input(args.input), args.variant, args.n)
    tree = codec.slither_decode(code)
    return tree_to_json_dict(tree) if args.format == "json" else tree_to_text(tree)


def cmd_params(args):
    tree = parse_tree(read_input(args.input))
    maps = {"normal": trees.classify(tree, NORMAL), "comply": trees.classify(tree, Variant(2))}
    matching, path_edges = maps["normal"].capacity_edges(), maps["comply"].capacity_edges()
    out = {
        "n": tree.n,
        "root": tree.root,
        "independence": tree.n - matching,
        "matching": matching,
        "path_edges": path_edges,
        "path_cover": tree.n - path_edges,
        "b": args.b,
        "capacity_edges": trees.max_capacity_edges(tree, args.b),
    }
    if args.format == "json":
        return {**out, "classification": {k: pm.labels() for k, pm in maps.items()}}
    return _params_text(out, maps)


def cmd_read(args):
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
    return out if args.format == "json" else kv_text(out)


# Bounds --n of sample, simulate and clt, and --n times --count of sample, whose
# trees are held until printed at about 80 to 150 B per vertex.
_SAMPLE_MAX_N = 10**6
# Bounds --trials of simulate and clt: a trial takes about 8-30 us on one
# CPU (dice at n = 10 to 2000, plane at n = 500), so 10^7 is 1.5 to 5 minutes.
_TRIALS_MAX = 10**7


def _check_bound(flag: str, value: int | None, bound: int) -> None:
    if value is not None and value > bound:
        raise ValueError(f"{flag} is bounded at {bound}, got {value}")


def cmd_sample(args):
    _check_bound("--n", args.n, _SAMPLE_MAX_N)
    _check_positive(args.count, "--count")
    if args.n * args.count > _SAMPLE_MAX_N:
        raise ValueError(f"--n times --count is bounded at {_SAMPLE_MAX_N}, "
                         f"got --n {args.n} --count {args.count}")
    if args.family == "plane":
        raise ValueError(
            "the plane family has no tree codec here; plane supports simulate only")
    n = _check_positive(args.n, "n")  # refuse it, and the family's size rule, before a seed
    deal = games.DEALS["dice" if args.family == "uniform" else args.family](n)
    source = games.RandomSource(resolve_seed(args.seed))
    sampled = [codec.decode_sequence(deal(source.trial_rng(i)).tolist(), n, args.variant)
               for i in range(args.count)]
    if args.format == "json":
        dicts = [tree_to_json_dict(t) for t in sampled]
        return dicts if args.count > 1 else dicts[0]
    return "\n".join(tree_to_text(t) for t in sampled)


def cmd_simulate(args):
    _check_bound("--n", args.n, _SAMPLE_MAX_N)
    _check_bound("--trials", args.trials, _TRIALS_MAX)
    resolve_threads(args.threads)
    trials = _check_positive(args.trials, "trials")  # refuse it before a seed is drawn
    game = args.game
    if game == "cards":
        if args.deck is None:
            raise ValueError("--deck is required for the cards game")
        toks = tuple(args.deck.replace(",", " ").split())
        try:  # Deck reads each token strictly
            deck = games.Deck(n=len(toks), multiplicities=toks)
        except ValueError as exc:
            raise ValueError(f"--deck {_echo(args.deck)}: {exc}") from None
        if args.n is not None and args.n != deck.n:
            raise ValueError(f"--n {args.n} disagrees with deck size n={deck.n}")
        n, cards = deck.n, deck.cards()  # expanded once, shuffled by each deal
        deal = lambda rng: rng.permutation(cards)
    else:
        if args.n is None:
            raise ValueError(f"--n is required for the {game} game")
        n = _check_positive(args.n, "n")
        deal = games.DEALS[game](n)  # the family's size rule, before a seed is drawn
    hist = games.run_trials(lambda rng: games.coupon_read(deal(rng), n), trials,
                            resolve_seed(args.seed), n=n, parameter="alpha")
    if args.format == "json":
        return hist.to_json_dict()
    return f"# game {game}\n" + table_text(hist, ("n", "parameter", "trials", "seed"),
                                            sorted(hist.counts.items()))


# Bounds both closed-form tables by their time, about n^2.5 on one CPU: the
# unrooted one takes 0.35-0.5 s at n = 1000 and 2.2-2.9 s at n = 2000 (traced
# peak 1.9 and 8 MB), the full-binary one 0.33 s at n = 1001 and 2.0 s at 2001.
_CLOSED_FORM_MAX_N = 1000


def cmd_enumerate(args):
    if args.b is not None and args.parameter != "capacity-edges":
        raise ValueError("--b applies only to --parameter capacity-edges")
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
            args.n, args.parameter.replace("-", "_"), b=2 if args.b is None else args.b)
    if args.format == "json":
        return table.to_json_dict()
    return table_text(table, ("family", "parameter", "n", "total"),
                      ((v, table.counts[v], f"{p:.9g}") for v, p in table.probabilities().items()))


def cmd_constants(args):
    rep = asymptotics.constants().to_json_dict()
    if args.format == "json":
        return rep
    width = max(map(len, rep))
    return "".join(f"{k:<{width}}  {v}\n" for k, v in rep.items())


def cmd_clt(args):
    _check_bound("--n", args.n, _SAMPLE_MAX_N)
    _check_bound("--trials", args.trials, _TRIALS_MAX)
    asymptotics.clt_sizes(args.n, args.trials)  # refuse them before a seed is drawn
    seed = resolve_seed(args.seed)
    rep = asymptotics.clt_check(args.n, args.trials, seed).to_json_dict()
    return rep if args.format == "json" else kv_text(rep)


def cmd_verify(args):
    oks = []
    for name, ok, detail in verify.run(args.level):
        yield f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n"
        oks.append(ok)
    yield f"{sum(oks)}/{len(oks)} checks passed ({args.level} level)\n"
    return int(not all(oks))


# --- argument parsing -------------------------------------------------------


def _flag_int(text: str) -> int:
    """An integer flag, read by the rule input integers follow: a sign, then ASCII digits."""
    return _strict_int(text)


_flag_int.__name__ = "int"  # argparse's message names the type: "invalid int value: 'x'"


def _flag_variant(text: str) -> Variant:
    """A --variant flag, read by Variant.parse; argparse shows parse's own message."""
    try:
        return Variant.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subparsers, that cut an error as _echo cuts a value."""

    def error(self, message):  # 400 is past any message about a short argument
        super().error(_cut(message, 400))


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="slithercode",
        description="Slither codes: tree/sequence bijections, parameter reads, "
                    "samplers, exact enumeration, and limit checks.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def fmt(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")

    def variant(p, required=True):
        p.add_argument("--variant", type=_flag_variant, required=required,
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
    p.add_argument("--n", type=_flag_int, default=None,
                   help="vertex count; default from header or length+1")
    fmt(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("params", help="tree parameters and classifications")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--b", type=_flag_int, default=2, help="capacity for capacity_edges (default 2)")
    fmt(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("read", help="read parameters off a code without decoding")
    p.add_argument("input", nargs="?", default="-")
    variant(p)
    p.add_argument("--n", type=_flag_int, default=None)
    fmt(p)
    p.set_defaults(func=cmd_read)

    p = sub.add_parser("sample", help="draw random trees")
    p.add_argument("--family", required=True,
                   choices=["uniform" if f == "dice" else f for f in games.DEALS])
    p.add_argument("--n", type=_flag_int, required=True)
    p.add_argument("--count", type=_flag_int, default=1)
    p.add_argument("--seed", type=_flag_int, default=None,
                   help="omit to draw one from system entropy (echoed to stderr)")
    p.add_argument("--variant", type=_flag_variant, default=NORMAL,
                   metavar="{normal|comply|b=K}",
                   help="decode variant, for every family (default normal; "
                        "does not change the distribution)")
    fmt(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("simulate", help="run game trials, output a histogram")
    p.add_argument("--game", choices=[*games.DEALS, "cards"], required=True)
    p.add_argument("--n", type=_flag_int, default=None)
    p.add_argument("--trials", type=_flag_int, required=True)
    p.add_argument("--seed", type=_flag_int, default=None)
    p.add_argument("--deck", type=str, default=None,
                   help="cards game: n multiplicities summing to n-1, e.g. '2 2 0 0 0 0 0'")
    p.add_argument("--threads", type=_flag_int, default=None,
                   help="trials run on one thread; only 1 is accepted, kept for old scripts")
    fmt(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enumerate", help="exact distribution tables")
    p.add_argument("--n", type=_flag_int, required=True)
    p.add_argument("--family", choices=("uniform", "full-binary"), default="uniform")
    p.add_argument("--parameter", default=None,
                   choices=[p.replace("_", "-") for p in counting._ROOTED_PARAMETERS],
                   help="rooted exhaustive sweep (n <= 7); default: closed-form "
                        "unrooted independence table")
    p.add_argument("--b", type=_flag_int, default=None,
                   help="capacity for --parameter capacity-edges only (default 2)")
    fmt(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("constants", help="limit constants, 15 significant digits")
    fmt(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("clt", help="dice game vs limiting normal law")
    p.add_argument("--n", type=_flag_int, default=2000)
    p.add_argument("--trials", type=_flag_int, default=100_000)
    p.add_argument("--seed", type=_flag_int, default=None)
    fmt(p)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("verify", help="self-check against oracles and references")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify)

    return ap


def run(argv=None) -> int:
    """Run argv's command, write what it returns and return the exit status.  A command
    returns text as a str or as pieces written one by one, or with --format json the value
    to dump; verify yields each check's line as it finishes and returns the status."""
    args = build_parser().parse_args(argv)
    out = args.func(args)
    if getattr(args, "format", None) == "json":
        out = json.dumps(out, indent=2) + "\n"
    pieces = iter([out] if isinstance(out, str) else out)
    try:
        while True:
            _write_out(next(pieces))
            sys.stdout.flush()  # each piece reaches a pipe as written; a closed one fails here
    except StopIteration as stop:  # a generator's value is its exit status
        return stop.value or 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except BrokenPipeError:
        # the reader closed stdout: exit quietly with a shell's status for SIGPIPE,
        # and point fd 1 at devnull so the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # TreeError/CodeError/JSON errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
