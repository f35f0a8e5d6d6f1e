"""Golden outputs: pinned-seed CLI runs recorded as literals.

Every family's deal and every exhaustive sweep parameter are pinned byte
for byte, so a refactor of the dealing, reading or counting code that
changes what a user sees fails here first.  The sizes are small (n <= 200,
300 trials); the sweeps are pinned at n = 5, 6 and 7, that is 625, 7776 and
117,649 codes.  `verify --level quick`, the limit constants and a small
`clt` run (n = 100, 10,000 trials) are pinned too.

The digests pin decode, encode and params output at n = 2000, well past the
exhaustive sweeps (n <= 7), where many parents become ready behind the
pruning scan's pointer, and the strategic sets and path cover of a
2000-vertex path and star.  They also pin the closed-form tables (the
independence law at n = 40 and 60, the full-binary deck law at n = 41),
whose counts run to 80 digits.
"""

import hashlib

import numpy as np
import pytest

from slithercode import cli, codec, trees
from slithercode.trees import Variant

GOLDEN = (
    ('simulate --game dice --n 200 --trials 300 --seed 11 --threads 1',
     """\
# game dice
# n 200
# parameter alpha
# trials 300
# seed 11
109 7
110 18
111 28
112 47
113 59
114 47
115 44
116 23
117 11
118 13
119 3
"""),
    ('simulate --game cards --deck 3,2,1,1,1,0,0,0,0 --trials 300 --seed 12 --threads 1',
     """\
# game cards
# n 9
# parameter alpha
# trials 300
# seed 12
5 197
6 103
"""),
    ('simulate --game full-binary --n 21 --trials 300 --seed 13 --threads 1',
     """\
# game full-binary
# n 21
# parameter alpha
# trials 300
# seed 13
11 5
12 148
13 142
14 5
"""),
    ('simulate --game binary-lr --n 100 --trials 300 --seed 14 --threads 1',
     """\
# game binary-lr
# n 100
# parameter alpha
# trials 300
# seed 14
51 7
52 45
53 77
54 105
55 49
56 12
57 4
58 1
"""),
    ('simulate --game plane --n 40 --trials 300 --seed 15 --threads 1',
     """\
# game plane
# n 40
# parameter alpha
# trials 300
# seed 15
21 2
22 8
23 28
24 80
25 86
26 67
27 20
28 5
29 4
"""),
    ('sample --family uniform --n 8 --count 2 --seed 21',
     """\
8 2
1 6
3 7
4 2
5 6
6 4
7 4
8 4

8 7
1 8
2 8
3 8
4 7
5 8
6 4
8 6
"""),
    ('sample --family uniform --n 8 --count 2 --seed 21 --variant comply',
     """\
8 4
1 6
2 4
3 7
5 6
6 4
7 4
8 2

8 7
1 8
2 8
3 8
4 7
5 8
6 4
8 6
"""),
    ('sample --family full-binary --n 9 --count 2 --seed 22',
     """\
9 2
1 4
3 2
4 3
5 4
6 1
7 1
8 2
9 3

9 1
2 3
3 4
4 1
5 2
6 2
7 1
8 4
9 3
"""),
    ('sample --family binary-lr --n 8 --count 2 --seed 23',
     """\
8 3
1 3
2 1
4 2
5 4
6 4
7 3
8 7

8 6
1 6
2 4
3 2
4 5
5 7
7 1
8 1
"""),
    ('enumerate --n 5 --parameter independence',
     """\
# family uniform-rooted
# parameter independence
# n 5
# total 625
3 600 0.96
4 25 0.04
"""),
    ('enumerate --n 5 --parameter matching',
     """\
# family uniform-rooted
# parameter matching
# n 5
# total 625
1 25 0.04
2 600 0.96
"""),
    ('enumerate --n 5 --parameter path-edges',
     """\
# family uniform-rooted
# parameter path_edges
# n 5
# total 625
2 25 0.04
3 300 0.48
4 300 0.48
"""),
    ('enumerate --n 5 --parameter path-cover',
     """\
# family uniform-rooted
# parameter path_cover
# n 5
# total 625
1 300 0.48
2 300 0.48
3 25 0.04
"""),
    ('enumerate --n 5 --parameter capacity-edges',
     """\
# family uniform-rooted
# parameter capacity_edges
# n 5
# total 625
2 25 0.04
3 300 0.48
4 300 0.48
"""),
    ('enumerate --n 5 --parameter capacity-edges --b 3',
     """\
# family uniform-rooted
# parameter capacity_edges
# n 5
# total 625
3 25 0.04
4 600 0.96
"""),
    ('enumerate --parameter independence --n 6',
     """\
# family uniform-rooted
# parameter independence
# n 6
# total 7776
3 4320 0.555555556
4 3420 0.439814815
5 36 0.00462962963
"""),
    ('enumerate --parameter matching --n 6',
     """\
# family uniform-rooted
# parameter matching
# n 6
# total 7776
1 36 0.00462962963
2 3420 0.439814815
3 4320 0.555555556
"""),
    ('enumerate --parameter path-edges --n 6',
     """\
# family uniform-rooted
# parameter path_edges
# n 6
# total 7776
2 36 0.00462962963
3 720 0.0925925926
4 4860 0.625
5 2160 0.277777778
"""),
    ('enumerate --parameter path-cover --n 6',
     """\
# family uniform-rooted
# parameter path_cover
# n 6
# total 7776
1 2160 0.277777778
2 4860 0.625
3 720 0.0925925926
4 36 0.00462962963
"""),
    ('enumerate --parameter capacity-edges --b 3 --n 6',
     """\
# family uniform-rooted
# parameter capacity_edges
# n 6
# total 7776
3 36 0.00462962963
4 720 0.0925925926
5 7020 0.902777778
"""),
    ('enumerate --parameter independence --n 7',
     """\
# family uniform-rooted
# parameter independence
# n 7
# total 117649
4 102900 0.874635569
5 14700 0.124947938
6 49 0.000416493128
"""),
    ('enumerate --parameter path-cover --n 7',
     """\
# family uniform-rooted
# parameter path_cover
# n 7
# total 117649
1 17640 0.149937526
2 76440 0.649729279
3 22050 0.187421908
4 1470 0.0124947938
5 49 0.000416493128
"""),
    ('verify --level quick',
     """\
PASS worked-example: 10-vertex reference tree, both variants
PASS bijection-sweep: all codes, b in 1..3, n <= 4
PASS reading-rules: alpha, root, p-set, matching, capacity reads, n <= 5
PASS counting-formulas: closed forms vs exhaustive (n <= 5), totals to n=40
PASS full-binary-decks: exhaustive deals m <= 3, totals to m=8
PASS capacity-oracle: exhaustive n <= 5 plus 300 random trees, b in 1..3
PASS constants: fixed points vs closed forms
PASS sampling-statistics: skipped at quick level
8/8 checks passed (quick level)
"""),
    ('constants',
     """\
rho                         0.567143290409784
sigma2                      0.025680322293649
full_binary_mean            0.585786437626905
full_binary_variance_coeff  0.0147186257614297
binary_lr_mean              0.535898384862245
plane_mean                  0.618033988749895
t0                          0.806465994236327
path_cover_coeff            0.252898972664606
"""),
    ('constants --format json',
     """\
{
  "rho": "0.567143290409784",
  "sigma2": "0.025680322293649",
  "full_binary_mean": "0.585786437626905",
  "full_binary_variance_coeff": "0.0147186257614297",
  "binary_lr_mean": "0.535898384862245",
  "plane_mean": "0.618033988749895",
  "t0": "0.806465994236327",
  "path_cover_coeff": "0.252898972664606"
}
"""),
    ('clt --n 100 --trials 10000 --seed 3',
     """\
n: 100
trials: 10000
seed: 3
mean: 56.8204
variance: 2.6163438400000003
mean_over_n: 0.568204
variance_over_n: 0.026163438400000003
rho: 0.5671432904097838
sigma2: 0.02568032229364897
ks_distance: 0.018001716594222783
ks_fitted: 0.012187376253446125
"""),
    ('clt --n 100 --trials 10000 --seed 3 --format json',
     """\
{
  "n": 100,
  "trials": 10000,
  "seed": 3,
  "mean": 56.8204,
  "variance": 2.6163438400000003,
  "mean_over_n": 0.568204,
  "variance_over_n": 0.026163438400000003,
  "rho": 0.5671432904097838,
  "sigma2": 0.02568032229364897,
  "ks_distance": 0.018001716594222783,
  "ks_fitted": 0.012187376253446125
}
"""),
)


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_golden_stdout(capsys, argv, expected):
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == expected


# (b, seed, sha256 of tree_to_text(decoded), sha256 of code_to_text(re-encoded))
CODEC_DIGESTS = (
    (1, 2001, "c3f17230393406a2f87c88ed649633297d290e8d86384d4c1f395c2addf6d48f",
     "c7d720377de684ddbdaba70a90328322555ed41c3df0d16bb1e3fa430ff294ec"),
    (2, 2002, "cd74333bb747cf6a7de61c5e63ee5b83ace4fbe1a65624cfff8054da24fabbcc",
     "4acd1c99fab551adb660303734094482286b0ecd7bd0d0e7e6673641caa64e51"),
    (3, 2003, "7489ca2175e5dd2875171b5775324f250f19d538a8bd2c26f6c06e72effc02a7",
     "c52ed98a7b74a95d2d4e716ad3f172490c495fd78a261dbfb836baf5eaf9fdd5"),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _decoded_n2000(b: int, seed: int):
    n = 2000
    sym = tuple(int(s) for s in np.random.default_rng(seed).integers(1, n + 1, size=n - 1))
    return codec.slither_decode(codec.SlitherCode(n, Variant(b), sym))


@pytest.mark.parametrize("b, seed, tree_digest, code_digest", CODEC_DIGESTS,
                         ids=[f"b={b}" for b, *_ in CODEC_DIGESTS])
def test_golden_codec_n2000(b, seed, tree_digest, code_digest):
    tree = _decoded_n2000(b, seed)
    assert _sha256(cli.tree_to_text(tree)) == tree_digest
    code, _ = codec.slither_encode(tree, Variant(b))
    assert _sha256(cli.code_to_text(code)) == code_digest


# The same three trees: sha256 of the repr of the encode auxiliary, of
# [classify(tree, Variant(k)).labels() for k in 1, 2, 3], of
# strategic_set(tree, 2) and of path_cover_decomposition(tree).
CLASS_DIGESTS = (
    (1, 2001, "99d4bf35323799cc134fc411016dc94fdc463844415b4edc988685c4a09678f6",
     "1ed44fa67cf99f0d60cf35ce5a70e69b3c7c0ced7412e25ff15be46aae8defec",
     "1167e4e6d840c4ace7e84fdc6e5a8f96352cece1f465d9366ea48f5ce460106f",
     "0c6d2bf1af94ec36c731baed21dea9d1c1ae37be9fb51c22b8a47c3df708732f"),
    (2, 2002, "274e7f6c425561ca77dd2af604adfd4a6c5d59c6e0562e059949da2912970e44",
     "958b4d8fb77bf433ef3cb8af89929728c3b6f9e574928b0b0b21c0bd55f3300f",
     "6eb292bd99a8b1ac38771986c08b85d6b3dc3651ffae14de6f566f4ede75d856",
     "5215d0f05611e4ecbcbc0f4b736a1da45a82745243a2ceb983cd90934bff90dd"),
    (3, 2003, "857d151469135177cb79fd63dcb648ba63d8bdeffb328a2d7f55ed1a4a71606a",
     "d155036228801e3b122dac36fc60cd317319a960eaba90d632111d64a532e95a",
     "03c3f81a72f7eb9ff79fb0973b78b3a114082e917d2c9694a1133a42157f2252",
     "09eb6b21d487b4f51ddba51b358926a4553fe1a53a4fb3bf21a285ebc384f5dc"),
)


@pytest.mark.parametrize("b, seed, aux_digest, labels_digest, strategic_digest, cover_digest",
                         CLASS_DIGESTS, ids=[f"b={b}" for b, *_ in CLASS_DIGESTS])
def test_golden_classes_n2000(b, seed, aux_digest, labels_digest, strategic_digest,
                              cover_digest):
    tree = _decoded_n2000(b, seed)
    _, aux = codec.slither_encode(tree, Variant(b))
    assert _sha256(repr(aux)) == aux_digest
    labels = [trees.classify(tree, Variant(k)).labels() for k in (1, 2, 3)]
    assert _sha256(repr(labels)) == labels_digest
    assert _sha256(repr(trees.strategic_set(tree, 2))) == strategic_digest
    assert _sha256(repr(trees.path_cover_decomposition(tree))) == cover_digest


# The same three trees: sha256 of the repr of strategic_set(tree, b) at b = 1
# and 3.
STRATEGIC_DIGESTS = (
    (1, 2001, "34057e7db5e6056134d59ef6a53ab568bb72e755e189a31668430a6a6354eeec",
     "302c83e9ed801153858a82766d7cd901306aaace455d4b8eaf4178136bc5d0f1"),
    (2, 2002, "d21bfe06c7a45f6433d981529a10f5a91db379be6622f6c6a40aecc5438cc47b",
     "836a9f26af11a04bdd2bc28e9c9a5026d08466f7283885c46c3f91483fcb3bee"),
    (3, 2003, "a14be38afcc115f405ef543d51bf3709a5c0184258eae40c601f7fcd35f52126",
     "898390f183b33cf11394771ebd21bdebee0918ba11380db29831ccbb6f6d9581"),
)


@pytest.mark.parametrize("b, seed, b1_digest, b3_digest", STRATEGIC_DIGESTS,
                         ids=[f"b={b}" for b, *_ in STRATEGIC_DIGESTS])
def test_golden_strategic_n2000(b, seed, b1_digest, b3_digest):
    tree = _decoded_n2000(b, seed)
    assert _sha256(repr(trees.strategic_set(tree, 1))) == b1_digest
    assert _sha256(repr(trees.strategic_set(tree, 3))) == b3_digest


def _shaped_n2000(shape: str, seed: int) -> trees.RootedTree:
    """A path or a star on 1..2000, its labels in a seeded random order from the root."""
    order = (np.random.default_rng(seed).permutation(2000) + 1).tolist()
    pairs = list(zip(order[1:], order if shape == "path" else [order[0]] * 2000))
    return trees.validate_tree({"n": 2000, "root": order[0], "parent": pairs})


# The deep and the wide shape: sha256 of the repr of strategic_set(tree, b) at
# b = 1, 2 and 3, and of path_cover_decomposition(tree).
SHAPE_DIGESTS = (
    ("path", 2004, ("9fa76c103899f3383b5d7a3bb74e3d1db08add6e857253e1d0d8f9aa3ecf6001",
                    "280f79a69cf60b14ef1dc7107a4065b49cf759881281138aa1b886eb26a1580b",
                    "280f79a69cf60b14ef1dc7107a4065b49cf759881281138aa1b886eb26a1580b"),
     "458e850d241f901196b5495ba9420caf9ebf9819d6ed8fe53eea36c10021cdb3"),
    ("star", 2005, ("e8f47ece04e839ee1bc27db42aeabcb564ce85ff607014de49273d7bcb4fceaa",
                    "71e804d733c214b4c36dbf9e53dbf98b9ff08bfec787879f6d54b583fedf9380",
                    "d2a35a5ec881e8b25a6f1fe6007c9381625763ee8a8cf9cf3caa848e6dcf07c1"),
     "b80583827378b0f24fd8d126270a61fa3f35af1912b5a0fb104f10ffffc41633"),
)


@pytest.mark.parametrize("shape, seed, strategic_digests, cover_digest", SHAPE_DIGESTS,
                         ids=[shape for shape, *_ in SHAPE_DIGESTS])
def test_golden_shapes_n2000(shape, seed, strategic_digests, cover_digest):
    tree = _shaped_n2000(shape, seed)
    for b, digest in zip((1, 2, 3), strategic_digests):
        assert _sha256(repr(trees.strategic_set(tree, b))) == digest
    assert _sha256(repr(trees.path_cover_decomposition(tree))) == cover_digest


# The same three trees: sha256 of the stdout of `params <tree text>` in the
# default text format and with --format json.
PARAMS_DIGESTS = (
    (1, 2001, "3c5fec1be542e55283ac57184b9769397d48176ab29ca4d179f914bd77ec64e9",
     "246d51bd013a29d422fb56d6e9486f5984ccaa2faa8cfc02e3bc4bae411fe47c"),
    (2, 2002, "3363c44cdba8f74e9e38b7b0f399e3e5a42368ceb2dea70f47a9d7f7ac799a00",
     "10ab8e72f7dd272f6356b706db7be5f37f265f5955421f9cb7a83e3f8758ea3d"),
    (3, 2003, "ec995cb40c954c155a0c0dc7874a830fbce8161b5a49ec8a390b110b987e7165",
     "5959f94f8872eb12e165dffe67491e5bcd6543b73c6a0f1026b516352dc71d14"),
)


@pytest.mark.parametrize("b, seed, text_digest, json_digest", PARAMS_DIGESTS,
                         ids=[f"b={b}" for b, *_ in PARAMS_DIGESTS])
def test_golden_params_n2000(capsys, b, seed, text_digest, json_digest):
    tree_text = cli.tree_to_text(_decoded_n2000(b, seed))
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        assert cli.main(["params", tree_text, "--format", fmt]) == 0
        assert _sha256(capsys.readouterr().out) == digest


# sha256 of the stdout of each closed-form table, 0.8 to 3.2 KB of text.
CLOSED_FORM_DIGESTS = (
    ("enumerate --n 60", "8662e146015c1e66a88f6124d8704a1a7b8513793049d22d99dae6865087b9e5"),
    ("enumerate --n 40 --format json",
     "7b1027fe054fb3cbf55361e1555f9dd13ab4f69dc0f7e60bf9b9568355383b31"),
    ("enumerate --family full-binary --n 41 --format json",
     "37eda6aba6c6b7448581ebd4ba2c6ce91ae28ae40cadaad5e8a795821011a2dd"),
)


@pytest.mark.parametrize("argv, digest", CLOSED_FORM_DIGESTS,
                         ids=[a for a, _ in CLOSED_FORM_DIGESTS])
def test_golden_closed_form(capsys, argv, digest):
    assert cli.main(argv.split()) == 0
    assert _sha256(capsys.readouterr().out) == digest
