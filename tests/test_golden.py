"""Golden outputs: pinned-seed CLI runs recorded as literals.

Every family's deal, every exhaustive sweep parameter and both thread
counts are pinned byte for byte, so a refactor of the dealing, reading or
counting code that changes what a user sees fails here first.  The sizes
are small (n <= 200, 300 trials) and the whole module runs in well under a
second.
"""

import pytest

from slithercode import cli

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
    ('simulate --game dice --n 200 --trials 300 --seed 11 --threads 2',
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
21 1
22 10
23 34
24 90
25 93
26 51
27 18
28 3
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
)


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_golden_stdout(capsys, argv, expected):
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == expected
