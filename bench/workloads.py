"""Operation lists for the three benchmark workloads, made from a seed.

Each workload is a list of operations; an operation is the argv list that
is handed to ``degenpoly.cli.main``. The program never sees the seed, only
the argv lists made from it. The same seed gives the same lists
byte-for-byte (``random.Random`` with an integer seed repeats its draws
across runs and platforms for a given Python version).

  suite        one ``verify --suite all`` call; its operations are the
               checks inside it, so the seed has nothing to vary.
  tables       every family x route once plus one rational-lambda CSV; the
               seed only shuffles the order, so the recorded output digests
               stay valid for every seed.
  eval-stream  a closed loop of point queries. The multiset of
               (family, n, route) triples is fixed, and so are the band
               of m and whether x = -1 for each occurrence of a triple, so
               that the cost of a pass does not swing with the seed; the
               seed draws m within its band, x, lambda and the order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, NamedTuple, Optional

WORKLOADS = ("suite", "tables", "eval-stream")

SUITE_ARGV = ["verify", "--suite", "all", "--format", "json"]

#: (family, route, n_max), sized so that one pass takes 1.6-3.6 s on a
#: 2-core Intel Xeon at 2.1 GHz, depending on the host's load, and a run
#: holds several passes; route None means the family's only route.
TABLE_SPECS = (
    ("eulerian-number", "recursion", 36),
    ("eulerian-number", "explicit", 16),
    ("eulerian-number", "gf-recursion", 12),
    ("eulerian-poly", "recursion", 32),
    ("eulerian-poly", "explicit", 14),
    ("eulerian-poly", "gf-recursion", 12),
    ("bernoulli", None, 32),
    ("stirling1", None, 12),
    ("stirling2", "explicit", 12),
    ("stirling2", "eulerian", 10),
)
TABLE_CSV_ARGV = ["table", "eulerian-number", "--n-max", "36", "--route", "recursion",
                  "--lambda", "3/7", "--format", "csv"]

#: eval-stream: every (family, route) pair at every n in EVAL_N appears
#: EVAL_REPEATS times, so 1 - 1/EVAL_REPEATS of the queries (seven eighths)
#: repeat a (family, n, route) triple that an earlier query already used.
#: Occurrence k of a powersum triple draws m from the k-th of EVAL_REPEATS
#: equal bands of 1..EVAL_M_MAX; occurrence 0 of an eulerian-at direct
#: triple is asked at x = -1, where the reference is the Bernoulli closed
#: form rather than the explicit row (the bernoulli route is always at -1).
EVAL_ROUTES = (
    ("powersum", "direct"),
    ("powersum", "eulerian"),
    ("powersum", "bernoulli"),
    ("eulerian-at", "direct"),
    ("eulerian-at", "bernoulli"),
)
EVAL_N = range(1, 13)
EVAL_REPEATS = 8
EVAL_M_MAX = 24


def table_argvs(seed: int) -> List[List[str]]:
    argvs = []
    for family, route, n_max in TABLE_SPECS:
        argv = ["table", family, "--n-max", str(n_max)]
        if route is not None:
            argv += ["--route", route]
        argvs.append(argv + ["--format", "json"])
    argvs.append(list(TABLE_CSV_ARGV))
    random.Random(seed).shuffle(argvs)
    return argvs


class EvalQuery(NamedTuple):
    family: str
    route: str
    n: int
    m: Optional[int]
    x: Optional[Fraction]
    lam: Fraction

    def argv(self) -> List[str]:
        # "--flag=value", because argparse reads a separate "-2/3" as an option.
        argv = ["eval", self.family]
        if self.family == "powersum":
            argv += ["--m", str(self.m)]
        else:
            argv.append(f"--x={self.x}")
        return argv + ["--n", str(self.n), f"--lambda={self.lam}", "--route", self.route]


def _rational(rng: random.Random, top: int) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def eval_queries(seed: int) -> List[EvalQuery]:
    rng = random.Random(seed)
    stream = [(family, route, n, k) for family, route in EVAL_ROUTES for n in EVAL_N
              for k in range(EVAL_REPEATS)]
    rng.shuffle(stream)
    band = EVAL_M_MAX // EVAL_REPEATS
    queries = []
    for family, route, n, k in stream:
        lam = _rational(rng, 9)
        m = x = None
        if family == "powersum":
            m = rng.randint(k * band + 1, (k + 1) * band)
        elif route == "bernoulli" or k == 0:
            x = Fraction(-1)
        else:
            x = _rational(rng, 9)
        queries.append(EvalQuery(family, route, n, m, x, lam))
    return queries


def operations(workload: str, seed: int) -> List[List[str]]:
    """The argv lists of one pass of ``workload``."""
    if workload == "suite":
        return [list(SUITE_ARGV)]
    if workload == "tables":
        return table_argvs(seed)
    if workload == "eval-stream":
        return [query.argv() for query in eval_queries(seed)]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")

