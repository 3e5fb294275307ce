"""The bounded-time target as a test: for a command, the worst input the
default caps accept must exit 0 (or exit 1 naming a knob) within the
budget. Rows are added as commands become bounded; none is removed.

``python tests/test_caps_edge.py`` prints each row as a shell-quoted
argument list, one a line, for running the rows under ``timeout``.
"""

import io
import os
import shlex
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from exoticcone.cli import run

# seconds per row, the same bound as the CI step's timeout
BUDGET = 10.0

# (6,1 | 1) is the slowest representative at n = 8; (8 | ∅) and (∅ | 1^8)
# are the two ends of the poset
EDGE_BIPARTITIONS = [("[6,1]", "[1]"), ("[8]", "[]"),
                     ("[]", "[1,1,1,1,1,1,1,1]")]

# rep(5,1,1 | 1) and rep(6,1 | 1) conjugated by random_symplectic(space, 7):
# dense n = 8 pairs, paths relative to the root of the repository
DENSE_PAIR = "tests/data/pair_n8_conj.json"
DENSE_PAIR_61 = "tests/data/pair_n8_conj_61.json"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROWS = [
    ("poset", "--n", "8"),
    ("poset", "--n", "8", "--dot"),
    *[(command, "--mu", mu, "--nu", nu)
      for command in ("representative", "filtration-dims", "phic", "collapse")
      for mu, nu in EDGE_BIPARTITIONS],
    # rank_cap is 8 and no cap bounds the entries
    ("bwb", "--lambda", "[-1000000,1000000,-999999,999999,-999998,999998,"
                        "-999997,999997]"),
    ("orbit-identify", "--file", DENSE_PAIR),
    ("adapted", "--file", DENSE_PAIR),
    # adapted on this pair takes more than half the budget, so it is no row
    ("orbit-identify", "--file", DENSE_PAIR_61),
]


@pytest.mark.parametrize("argv", ROWS, ids=" ".join)
def test_caps_edge_row_exits_0_within_the_budget(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    elapsed = time.perf_counter() - start
    assert code == 0, err.getvalue()
    assert out.getvalue()
    assert elapsed < BUDGET, elapsed


if __name__ == "__main__":
    for argv in ROWS:
        print(shlex.join(argv))
