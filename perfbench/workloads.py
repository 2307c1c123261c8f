"""The three benchmark workloads: their CLI invocations and output checks.

Each workload is a list of operations ("one pass").  An operation is one
qgrass CLI invocation plus the checks its stdout must pass.  The expected
counts come from a small reference lattice written here, independently of
qgrass, so a refactor of `qgrass.lattice` cannot make its own checks agree
with itself.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

# Contexts (p, m, n, q).
SAGBI_CTX = (3, 3, 1, 3)
KERNEL_CTX = (3, 3, 1, 2)
SKEW_CTX = (3, 3, 1, 3)
SMOKE_CTX = (2, 3, 1, 2)

SKEW_INTERVALS = 30  # one per stratum of interval sizes
SKEW_POOL = 10  # intervals kept per stratum

# deficit (kernel_dim - rank) that `obvious --rank` reports at the seed
# commit for each context the benchmark runs.
EXPECTED_DEFICIT = {KERNEL_CTX: 3, SMOKE_CTX: 0}

WORKLOADS = ("sagbi", "kernel", "skew")


@dataclass(frozen=True)
class Op:
    """One CLI invocation in context `ctx`, its work in incomparable pairs,
    and its check.

    `check` takes the decoded stdout and returns None when it is correct,
    otherwise a one-line reason.
    """

    ctx: tuple[int, int, int, int]
    argv: tuple[str, ...]
    pairs: int
    check: Callable[[str], Optional[str]]


# -- reference lattice --------------------------------------------------------


def elements(ctx) -> list[tuple[tuple[int, ...], int]]:
    """(cols, shift) for every shifted column set of the context."""
    p, m, _n, q = ctx
    return [
        (cols, shift)
        for shift in range(q + 1)
        for cols in itertools.combinations(range(1, m + p + 1), p)
    ]


def leq(u, v) -> bool:
    """u <= v: shifts weakly increase and the columns interlace."""
    d = v[1] - u[1]
    return d >= 0 and all(u[0][i] <= v[0][i + d] for i in range(len(u[0]) - d))


class RefLattice:
    """Comparability as bitsets, for fast pair counts over many intervals."""

    def __init__(self, ctx):
        self.elems = elements(ctx)
        n = len(self.elems)
        self.up = [0] * n  # bit j set when elems[i] <= elems[j]
        for i, u in enumerate(self.elems):
            for j, v in enumerate(self.elems):
                if leq(u, v):
                    self.up[i] |= 1 << j
        self.down = [sum(1 << j for j in range(n) if self.up[j] >> i & 1) for i in range(n)]

    def incomparable_pairs(self, members: int) -> int:
        size = bin(members).count("1")
        comparable = 0
        for i in range(len(self.elems)):
            if members >> i & 1:
                comparable += bin(self.up[i] & members).count("1") - 1
        return size * (size - 1) // 2 - comparable

    def all_pairs(self) -> int:
        return self.incomparable_pairs((1 << len(self.elems)) - 1)

    def intervals(self) -> list[tuple[int, int, int]]:
        """(bot, top, incomparable pairs) for every interval with bot < top."""
        out = []
        for b in range(len(self.elems)):
            for t in range(len(self.elems)):
                if b != t and self.up[b] >> t & 1:
                    out.append((b, t, self.incomparable_pairs(self.up[b] & self.down[t])))
        return out


def format_var(u) -> str:
    return "%s^%d" % ("".join(str(c) for c in u[0]), u[1])


def context_flags(ctx) -> list[str]:
    p, m, n, q = ctx
    return ["--p", str(p), "--m", str(m), "--n", str(n), "--q", str(q)]


# -- checks -------------------------------------------------------------------


def _json(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def _check_sagbi(expected_pairs: int):
    def check(stdout: str) -> Optional[str]:
        doc, err = _json(stdout)
        if err:
            return err
        if doc.get("failures") != []:
            return f"failures reported: {doc.get('failures')!r:.200}"
        if doc.get("pairs_total") != expected_pairs:
            return f"pairs_total {doc.get('pairs_total')} != {expected_pairs}"
        return None

    return check


def _check_kernel(expected_pairs: int, expected_deficit: int):
    def check(stdout: str) -> Optional[str]:
        doc, err = _json(stdout)
        if err:
            return err
        if doc.get("kernel_dim") != expected_pairs:
            return f"kernel_dim {doc.get('kernel_dim')} != #incomparable pairs {expected_pairs}"
        if doc.get("rank") != doc.get("generators"):
            return f"rank {doc.get('rank')} != generators {doc.get('generators')}"
        if doc.get("deficit") != expected_deficit:
            return f"deficit {doc.get('deficit')} != {expected_deficit}"
        return None

    return check


def _check_lines(expected_pairs: int):
    def check(stdout: str) -> Optional[str]:
        lines = stdout.splitlines()
        if len(lines) != expected_pairs:
            return f"{len(lines)} quadrics != {expected_pairs} incomparable pairs"
        return None

    return check


# -- plans --------------------------------------------------------------------


def skew_pool(ctx) -> list[list[tuple]]:
    """The intervals a skew draw chooses from, as SKEW_INTERVALS strata.

    All intervals bot < top are sorted by their number of incomparable
    pairs, then of elements, and cut into SKEW_INTERVALS equal strata; each
    stratum keeps the SKEW_POOL intervals at its middle, so intervals of
    one stratum cost about the same.  The pool is fixed, so every
    invocation a seed can draw has a recorded digest.  Items are
    (bot, top, incomparable pairs).
    """
    ref = RefLattice(ctx)

    def size(iv):
        bot, top, pairs = iv
        return pairs, bin(ref.up[bot] & ref.down[top]).count("1"), bot, top

    ranked = sorted(ref.intervals(), key=size)
    strata = []
    n = SKEW_INTERVALS
    for k in range(n):
        stratum = ranked[len(ranked) * k // n : len(ranked) * (k + 1) // n]
        mid = (len(stratum) - SKEW_POOL) // 2
        picks = stratum[mid : mid + SKEW_POOL]
        strata.append([(ref.elems[b], ref.elems[t], pairs) for b, t, pairs in picks])
    return strata


def skew_intervals(ctx, seed: int) -> list[tuple]:
    """A seeded draw of one pool interval from each stratum, shuffled.

    Every seed thus gets the same spread of sizes, from empty intervals to
    most of the lattice, and runs with different seeds stay comparable.
    """
    rng = random.Random(seed)
    picks = [rng.choice(stratum) for stratum in skew_pool(ctx)]
    rng.shuffle(picks)
    return picks


def _skew_argv(ctx, bot, top) -> tuple[str, ...]:
    interval = ["--interval", format_var(bot), format_var(top)]
    return tuple(context_flags(ctx) + ["--compact", "groebner"] + interval)


def plan(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """One pass of the workload.  `smoke` shrinks every context to SMOKE_CTX."""
    if workload == "sagbi":
        ctx = SMOKE_CTX if smoke else SAGBI_CTX
        pairs = RefLattice(ctx).all_pairs()
        argv = context_flags(ctx) + ["sagbi-check"]
        return [Op(ctx, tuple(argv), pairs, _check_sagbi(pairs))]
    if workload == "kernel":
        ctx = SMOKE_CTX if smoke else KERNEL_CTX
        pairs = RefLattice(ctx).all_pairs()
        argv = context_flags(ctx) + ["obvious", "--rank"]
        return [Op(ctx, tuple(argv), pairs, _check_kernel(pairs, EXPECTED_DEFICIT[ctx]))]
    if workload == "skew":
        ctx = SMOKE_CTX if smoke else SKEW_CTX
        return [
            Op(ctx, _skew_argv(ctx, bot, top), pairs, _check_lines(pairs))
            for bot, top, pairs in skew_intervals(ctx, seed)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def all_skew_argvs(ctx) -> list[tuple[str, ...]]:
    """Every skew invocation any seed can draw, for recording digests."""
    return [_skew_argv(ctx, bot, top) for stratum in skew_pool(ctx) for bot, top, _ in stratum]
