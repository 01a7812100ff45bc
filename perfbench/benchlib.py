"""Arithmetic of the repository benchmark, kept free of I/O so that
test_benchlib.py can check it: percentiles, the geometric mean, span
self time, the seeded simd-mix job plan and the golden-table comparator.
"""

import math
import random
import statistics

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that has at least `beyond` samples above it.

    Returns (value, percentile, samples), or None when there are too few
    samples. The value is the (beyond + 1)-th largest sample; the
    percentile is the share of samples at or below it. A failed
    operation is passed in as math.inf, so it ranks above every success.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < beyond + 1:
        return None
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def geomean(values):
    """Geometric mean of positive values."""
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(spans):
    """Self time in seconds of every span, in input order.

    Each span is a dict with `start_us`, `end_us` and `parent` (index of
    the enclosing span in the same list, or -1). A span's self time is
    its duration minus the part of it that the union of its children's
    intervals covers; concurrent children count once. A span still open
    (`end_us` None) has no self time yet and covers nothing.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0 and s["end_us"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s["start_us"], s["end_us"]
        if end is None:
            out.append(0.0)
            continue
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c]["start_us"]):
            lo = max(spans[c]["start_us"], reach)
            hi = min(spans[c]["end_us"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(end - start - covered, 0.0) * 1e-6)
    return out


def layer_self_seconds(spans, names, first=0):
    """Summed self time of the spans from index `first` on whose name is
    in `names`."""
    selfs = self_times(spans)
    return sum(t for s, t in zip(spans[first:], selfs[first:])
               if s["name"] in names)


# --------------------------------------------------------------------
# simd-mix job plan
# --------------------------------------------------------------------

MIX_SYSTEMS = ("gds", "graphicionado")
MIX_ALGORITHMS = ("bfs", "sssp", "sswp", "cc")
MIX_DATASETS = ("FR", "PK", "LJ")
MIX_COMBOS = len(MIX_SYSTEMS) * len(MIX_ALGORITHMS) * len(MIX_DATASETS)
# Share of jobs that re-submit a job the client already saw finish.
# Far from one half, so the latency median stays inside the miss mode.
HIT_SHARE = 0.2


class MixPlan:
    """The seeded job list of the simd-mix workload.

    Miss jobs come in `rounds` rounds: each round is a seeded permutation
    of every (system, algorithm, dataset) combination, and each job gets
    a source vertex never used before for its combination (a unique
    cache key). A whole number of rounds keeps the work nearly the same
    for every seed. Re-submits are inserted at seeded positions, HIT_SHARE
    of the list, never among the first `clients` entries.

    The clients share the list: each takes the next entry when its
    previous job has finished, so all of them stay busy until the list
    runs out and the run's length does not hinge on how the seed split
    the work. A re-submit entry carries a seeded number that picks one of
    the jobs the taking client has seen finish (`resubmit`); in a closed
    loop that job is done, so the re-submit is a cache hit.
    """

    def __init__(self, seed, sources, clients, rounds):
        rng = random.Random("mix/%d" % seed)
        combos = [(s, a, d) for s in MIX_SYSTEMS for a in MIX_ALGORITHMS
                  for d in MIX_DATASETS]
        used = set()
        misses = []
        for _ in range(rounds):
            rng.shuffle(combos)
            for system, algorithm, dataset in combos:
                while True:
                    source = rng.choice(sources[dataset])
                    if (system, algorithm, dataset, source) not in used:
                        break
                used.add((system, algorithm, dataset, source))
                misses.append({"op": "submit", "system": system,
                               "algorithm": algorithm,
                               "dataset": dataset, "source": source})
        hits = round(len(misses) * HIT_SHARE / (1.0 - HIT_SHARE))
        hit_at = set(rng.sample(range(clients, len(misses) + hits), hits))
        in_order = iter(misses)
        self.entries = [("hit", rng.randrange(1 << 30)) if pos in hit_at
                        else ("miss", next(in_order))
                        for pos in range(len(misses) + hits)]

    @staticmethod
    def resubmit(pick, finished):
        """The spec a re-submit entry re-sends: one of `finished`, the
        specs the client has seen finish, chosen by the entry's number."""
        return finished[pick % len(finished)]


# --------------------------------------------------------------------
# Golden table of the evaluation matrix
# --------------------------------------------------------------------

GOLDEN_FIELDS = ("status", "iterations", "seconds", "edgesProcessed",
                 "memoryBytes", "energyJoules", "configHash")


def cell_name(record):
    return "%s/%s/%s" % (record["system"], record["algorithm"],
                         record["dataset"])


def golden_rows(records):
    """The deterministic fields of each matrix cell, keyed by cell."""
    return {cell_name(r): {f: r[f] for f in GOLDEN_FIELDS} for r in records}


def golden_diff(golden, records):
    """Mismatches between the committed table and a matrix run.

    Returns a list of "cell: field expected X got Y" strings; empty
    means every cell and field matched exactly.
    """
    got = golden_rows(records)
    out = []
    for cell in sorted(set(golden) | set(got)):
        if cell not in got:
            out.append("%s: missing from the run" % cell)
            continue
        if cell not in golden:
            out.append("%s: not in the golden table" % cell)
            continue
        for field in GOLDEN_FIELDS:
            if golden[cell][field] != got[cell][field]:
                out.append("%s: %s expected %r got %r" % (
                    cell, field, golden[cell][field], got[cell][field]))
    return out
