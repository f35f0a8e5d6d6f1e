"""Per-layer tracing from outside the program, and the layer probes.

Tracer wraps, at run time, every public function of the package's six
modules (cli, codec, trees, games, counting, asymptotics), a few methods
(SlitherCode and Deck validation, Deck.cards, RandomSource.trial_rng) and
numpy's sorting entry points.  It patches every namespace that holds a
wrapped object, so a function imported by name into another module
(codec imports trees.classify, games imports codec.prefix_alpha) is traced
wherever it is called from.  Nothing under src/ changes.

Each call records a span: name, parent span, start and end.  Spans are kept
in per-thread arrays and merged when collected.  The probes below make a
fixed set of traced calls, the same for every workload, and derive every
per-layer metric from their spans.

Run on its own, this module prints the layer table at chosen sizes:

    python3 perfbench/layers.py --table 10000 100000 1000000
"""

from __future__ import annotations

import functools
import inspect
import threading
import tracemalloc
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("cli", "codec", "trees", "games", "counting", "asymptotics")
METHODS = (("codec", "SlitherCode", "__post_init__"), ("games", "Deck", "__post_init__"),
           ("games", "Deck", "cards"), ("games", "RandomSource", "trial_rng"))
NUMPY_SORTS = ("unique", "sort", "argsort")


def _first(args, kwargs, key, pos, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


# Spans of these functions carry a tag in their name, such as cli.main[decode].
TAGS = {
    "cli.main": lambda a, k: _first(a, k, "argv", 0)[0],
    "counting.exact_rooted_distribution":
        lambda a, k: _first(a, k, "parameter", 1, "independence"),
    "codec.prefix_alpha": lambda a, k: type(_first(a, k, "symbols", 0)).__name__,
}


class _Buffer:
    def __init__(self, thread: int):
        self.thread = thread
        self.name, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.stack: list = []


class Tracer:
    """Span recorder; include, when given, limits the wrapped names to that set."""

    def __init__(self, include=None):
        self.include = include
        self.names: list = []
        self._ids: dict = {}
        self._lock = threading.Lock()
        self._buffers: list = []
        self._local = threading.local()
        self._patches: list = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _wrap(self, name: str, fn):
        tag = TAGS.get(name)
        fixed = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if tag is None else tracer._intern(f"{name}[{tag(args, kwargs)}]")
            buf = tracer._buffer()
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                buf.stack.pop()

        return traced

    def _patch(self, owner, attr: str, name: str):
        if self.include is None or name in self.include:
            value = owner.__dict__[attr]
            self._patches.append((owner, attr, value))
            setattr(owner, attr, self._wrap(name, value))

    def install(self):
        import importlib

        modules = {m: importlib.import_module(f"slithercode.{m}") for m in MODULES}
        namespaces = [importlib.import_module("slithercode"), *modules.values()]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, f"{short}.{attr}")
        for short, cls_name, meth in METHODS:
            self._patch(getattr(modules[short], cls_name), meth, f"{short}.{cls_name}.{meth}")
        for attr in NUMPY_SORTS:
            self._patch(np, attr, f"numpy.{attr}")

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def collect(self) -> "Spans":
        """Merge and clear the recorded spans; call with no span open."""
        with self._lock:
            buffers, self._buffers = self._buffers, []
            self._local = threading.local()
        parts, offset = [], 0
        for buf in buffers:
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parent[parent >= 0] += offset
            parts.append((np.frombuffer(buf.name, dtype=np.int32).copy(), parent,
                          np.frombuffer(buf.start).copy(), np.frombuffer(buf.end).copy(),
                          np.full(len(buf.name), buf.thread, dtype=np.int32)))
            offset += len(buf.name)
        if not parts:
            parts = [(np.zeros(0, np.int32), np.zeros(0, np.int64), np.zeros(0), np.zeros(0),
                      np.zeros(0, np.int32))]
        return Spans(list(self.names), *(np.concatenate(col) for col in zip(*parts)))


class Spans:
    """Recorded spans as columns; parent is an index into the same columns."""

    def __init__(self, names, name, parent, start, end, thread):
        self.names, self.name, self.parent = names, name, parent
        self.start, self.end, self.thread = start, end, thread
        self.dur = end - start

    def ids(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def count(self, name: str) -> int:
        return len(self.ids(name))

    def median(self, name: str) -> float:
        idx = self.ids(name)
        if not len(idx):
            raise KeyError(f"no span named {name}")
        return float(np.median(self.dur[idx]))

    def ancestor(self, i: int, prefix: str) -> int:
        """Index of the nearest ancestor whose name starts with prefix, or -1."""
        i = int(self.parent[i])
        while i >= 0 and not self.names[self.name[i]].startswith(prefix):
            i = int(self.parent[i])
        return i

    def count_under(self, name: str, ancestor: str) -> int:
        return sum(1 for i in self.ids(name) if self.ancestor(i, ancestor) >= 0)

    def children_time(self, i: int, name: str) -> float:
        kids = np.flatnonzero((self.parent == i) & (self.name == self.names.index(name)))
        return float(self.dur[kids].sum())

    def cli_self(self, command: str) -> float:
        """Median over cli.main[command] spans of their time outside the library.

        The library time of a CLI span is the time of the outermost non-cli
        spans inside it.
        """
        top = f"cli.main[{command}]"
        lib = dict.fromkeys(self.ids(top).tolist(), 0.0)
        module = [n.split(".")[0] for n in self.names]
        for i in np.flatnonzero(self.parent >= 0):
            if module[self.name[i]] != "cli" and module[self.name[self.parent[i]]] == "cli":
                owner = self.ancestor(i, top)
                if owner in lib:
                    lib[owner] += self.dur[i]
        return float(np.median([self.dur[i] - t for i, t in lib.items()]))

    def summary(self) -> dict:
        """Per span name: count, total seconds, median seconds, self seconds."""
        child = np.zeros(len(self.dur))
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        own = self.dur - child
        out = {}
        for nid, name in enumerate(self.names):
            idx = np.flatnonzero(self.name == nid)
            if len(idx):
                out[name] = {"count": int(len(idx)), "total_s": float(self.dur[idx].sum()),
                             "median_s": float(np.median(self.dur[idx])),
                             "self_s": float(own[idx].sum())}
        return out


# --- probes ----------------------------------------------------------------------------
#
# A span includes the cost of recording the spans nested in it, one to a
# few microseconds each.  Metrics of calls that hold many nested calls (a sweep,
# a run of trials) are therefore taken from a tracer limited to those calls.

PROBE_TRIALS = 1500


@contextmanager
def tracing(include=None):
    tracer = Tracer(include)
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def probe_games(seed: int) -> dict:
    """Per-trial costs at one thread, and the same dice trials serial and pooled."""
    from slithercode import asymptotics, cli, games

    def trials(tracer, trial, n, threads):
        games.run_trials(trial, PROBE_TRIALS, seed, n=n, parameter="alpha", threads=threads)
        return tracer.collect()

    dice = lambda rng: games.dice_trial(2000, rng)
    pool = cli.resolve_threads(None)
    with tracing() as t:
        serial = trials(t, dice, 2000, 1)
        full = trials(t, lambda rng: games.full_binary_trial(250, rng), 501, 1)
        lr = trials(t, lambda rng: games.binary_lr_trial(500, rng), 500, 1)
        plane = trials(t, lambda rng: games.plane_trial(500, rng), 500, 1)
    with tracing({"games.run_trials", "asymptotics.clt_check"}) as t:
        serial_s = trials(t, dice, 2000, 1).median("games.run_trials")
        pooled_s = trials(t, dice, 2000, pool).median("games.run_trials")
        asymptotics.clt_check(2000, 10_000, seed, threads=pool)
        clt = t.collect()

    reads = "codec.prefix_alpha[ndarray]"
    sorts = sum(serial.count_under(f"numpy.{f}", reads) for f in NUMPY_SORTS)
    (clt_span,) = clt.ids("asymptotics.clt_check")
    return {
        "games.trial_rng_us": serial.median("games.RandomSource.trial_rng") * 1e6,
        "games.dice_trial_us": serial.median("games.dice_trial") * 1e6,
        "games.full_binary_trial_us": full.median("games.full_binary_trial") * 1e6,
        "games.binary_lr_trial_us": lr.median("games.binary_lr_trial") * 1e6,
        "games.plane_trial_us": plane.median("games.plane_trial") * 1e6,
        "games.decks_built_per_trial":
            full.count("games.Deck.__post_init__") / full.count("games.full_binary_trial"),
        "games.run_trials_serial_s": serial_s,
        "games.run_trials_pooled_s": pooled_s,
        "games.thread_speedup": serial_s / pooled_s,
        "codec.prefix_alpha_us": serial.median(reads) * 1e6,
        "codec.sorts_per_read": sorts / serial.count(reads),
        "asymptotics.clt_check_s": clt.dur[clt_span],
        "asymptotics.clt_self_ms":
            (clt.dur[clt_span] - clt.children_time(clt_span, "games.run_trials")) * 1e3,
    }


def probe_large(seed: int, n: int) -> dict:
    """One pass of each codec, trees and cli stage on random codes of length n - 1."""
    from slithercode import cli, codec, trees
    from workloads import Runner, code_text

    rng = np.random.default_rng([seed, 3, n])
    codes = {v: code_text(n, v, rng.integers(1, n + 1, size=n - 1).tolist())
             for v in ("normal", "comply", "b=3")}
    run = Runner(cli)
    with tracing() as t:
        decoded = run.cli_op("decode", ["decode", "--variant", "normal", codes["normal"]])
        ops = [decoded,
               run.cli_op("encode", ["encode", "--variant", "normal", decoded.out]),
               *(run.cli_op("read", ["read", "--variant", v, text]) for v, text in codes.items()),
               run.cli_op("params", ["params", decoded.out])]
        trees.path_cover_decomposition(cli.parse_tree(decoded.out))
        s = t.collect()
    if any(op.failed for op in ops):
        raise RuntimeError(f"probe command failed: {[op.label for op in ops if op.failed]}")

    # memory of one decode, untraced
    code = cli.parse_code(codes["normal"], trees.NORMAL, None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tree = codec.slither_decode(code)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del tree

    ms = lambda name: s.median(name) * 1e3
    return {
        "codec.SlitherCode_ms": ms("codec.SlitherCode.__post_init__"),
        "codec.slither_decode_ms": ms("codec.slither_decode"),
        "codec.slither_encode_ms": ms("codec.slither_encode"),
        "codec.read_root_and_pset_ms": ms("codec.read_root_and_pset"),
        "codec.read_matching_via_beta_ms": ms("codec.read_matching_via_beta"),
        "codec.read_path_edges_ms": ms("codec.read_path_edges"),
        "codec.read_capacity_edges_ms": ms("codec.read_capacity_edges"),
        "codec.decode_peak_bytes_per_vertex": (peak - base) / n,
        "trees.validate_tree_ms": ms("trees.validate_tree"),
        "trees.classify_ms": ms("trees.classify"),
        "trees.max_capacity_edges_ms": ms("trees.max_capacity_edges"),
        "trees.path_cover_decomposition_ms": ms("trees.path_cover_decomposition"),
        "trees.classify_calls_per_params":
            s.count_under("trees.classify", "cli.main[params]") / s.count("cli.main[params]"),
        "trees.tree_bytes_per_vertex": (held - base) / n,
        "cli.parse_code_ms": ms("cli.parse_code"),
        "cli.parse_tree_ms": ms("cli.parse_tree"),
        "cli.tree_to_text_ms": ms("cli.tree_to_text"),
        "cli.decode_self_ms": s.cli_self("decode") * 1e3,
        "cli.params_self_ms": s.cli_self("params") * 1e3,
    }


def probe_small() -> dict:
    """The exhaustive n = 7 sweeps, the exhaustive dice law and a closed form."""
    from slithercode import cli, counting
    from workloads import Runner

    run = Runner(cli)

    def command(tracer, argv):
        if run.cli_op(argv[0], argv).failed:
            raise RuntimeError(f"probe command failed: {argv}")
        return tracer.collect()

    independence = ["enumerate", "--parameter", "independence", "--n", "7"]
    sweep = "counting.exact_rooted_distribution[independence]"
    with tracing() as t:
        calls = command(t, independence)
    with tracing({"counting.exact_rooted_distribution", "counting.exact_dice_distribution",
                  "counting.independence_table"}) as t:
        indep = command(t, independence)
        cover = command(t, ["enumerate", "--parameter", "path-cover", "--n", "7"])
        table = command(t, ["enumerate", "--n", "300"])
        counting.exact_dice_distribution(7)
        dice = t.collect()
    return {
        "codec.slither_decode_small_us": calls.median("codec.slither_decode") * 1e6,
        "trees.classify_small_us": calls.median("trees.classify") * 1e6,
        "counting.exact_rooted_distribution_s": indep.median(sweep),
        "counting.exact_rooted_path_cover_s":
            cover.median("counting.exact_rooted_distribution[path_cover]"),
        "counting.exact_dice_distribution_ms":
            dice.median("counting.exact_dice_distribution") * 1e3,
        "counting.independence_table_ms": table.median("counting.independence_table") * 1e3,
        "counting.classify_calls_per_code":
            calls.count_under("trees.classify", sweep) / calls.count("codec.slither_decode"),
    }


def probe_all(seed: int) -> dict:
    return {**probe_games(seed), **probe_large(seed, 100_000), **probe_small()}


TABLE_ROWS = (("`SlitherCode(...)` validate", "codec.SlitherCode_ms"),
              ("`slither_decode`", "codec.slither_decode_ms"),
              ("`classify`", "trees.classify_ms"),
              ("`slither_encode`", "codec.slither_encode_ms"),
              ("`read_root_and_pset`", "codec.read_root_and_pset_ms"),
              ("`read_matching_via_beta`", "codec.read_matching_via_beta_ms"),
              ("`validate_tree`", "trees.validate_tree_ms"),
              ("`path_cover_decomposition`", "trees.path_cover_decomposition_ms"))


def main(argv=None) -> int:
    import argparse
    import sys
    from pathlib import Path

    ap = argparse.ArgumentParser(description="Print the traced layer table at chosen n, seed 1.")
    ap.add_argument("--table", type=int, nargs="+", required=True, metavar="N")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    cols = [probe_large(1, n) for n in args.table]
    print("| layer (ms) | " + " | ".join(f"n={n}" for n in args.table) + " |")
    print("|---|" + "---:|" * len(args.table))
    for label, key in TABLE_ROWS:
        cells = (f"{c[key]:.3g}" if c[key] < 100 else f"{c[key]:.0f}" for c in cols)
        print(f"| {label} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
