"""Memoised coverpoint sampling against a first-match reference sampler.

``CoverPoint.sample`` remembers the first-matching bin per
``(type(value), value)`` when none of its bins is a predicate.  The
reference below scans every bin on every sample, exactly as the bin rules
read; the two must agree on every hit count, every cross count and every
``last_bin``, for any mix of exact, range and predicate bins, crosses of
one to three points, missing points, and values that compare equal across
types (``1``, ``True``, ``1.0``) or cannot be hashed.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.verify import CoverCross, coverage
from repro.verify.coverage import MEMO_LIMIT, CoverGroup

#: Sampled values: equal-but-distinct-type triples, strings, an
#: unhashable list, and values no exact bin names.
VALUES = [0, 1, 2, 3, 5, True, False, 1.0, 2.5, "a", "b", [1], None]

EXACT = [0, 1, 2, 3, True, 1.0, "a", "b"]
RANGES = [(0, 1), (1, 3), (2, 5), (0, 0)]
PREDICATES = {
    "odd": lambda v: isinstance(v, int) and v % 2 == 1,
    "text": lambda v: isinstance(v, str),
    "listy": lambda v: isinstance(v, list),
}


class CountingPredicate:
    """A predicate bin that records every call."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = 0

    def __call__(self, value):
        self.calls += 1
        return self.rule(value)


def reference_match(spec, value):
    if callable(spec):
        return bool(spec(value))
    if isinstance(spec, tuple):
        lo, hi = spec
        return isinstance(value, int) and lo <= value <= hi
    return value == spec


class ReferenceGroup:
    """First-match sampling with no memo: the bins' rules, read literally."""

    def __init__(self, name, points, crosses):
        self.name = name
        self.points = points
        self.crosses = crosses
        self.hits = {p: {b: 0 for b, _ in bins} for p, bins in points.items()}
        self.combos = {c: {tuple(combo): 0 for combo in combos}
                       for c, _, combos in crosses}
        self.last_bin = {p: None for p in points}
        self.samples = 0

    def sample(self, values):
        self.samples += 1
        for pname, bins in self.points.items():
            self.last_bin[pname] = None
            if pname not in values:
                continue
            for bname, spec in bins:
                if reference_match(spec, values[pname]):
                    self.hits[pname][bname] += 1
                    self.last_bin[pname] = bname
                    break
        for cname, pnames, _ in self.crosses:
            key = tuple(self.last_bin[p] for p in pnames)
            if None not in key and key in self.combos[cname]:
                self.combos[cname][key] += 1

    def to_dict(self):
        return {
            "name": self.name,
            "samples": self.samples,
            "points": {p: dict(hits) for p, hits in self.hits.items()},
            "crosses": {
                cname: {"points": list(pnames),
                        "hits": {"|".join(combo): hits for combo, hits
                                 in self.combos[cname].items()}}
                for cname, pnames, _ in self.crosses},
        }


@st.composite
def bin_specs(draw):
    kind = draw(st.sampled_from(["exact", "range", "predicate"]))
    if kind == "exact":
        return kind, draw(st.sampled_from(EXACT))
    if kind == "range":
        return kind, draw(st.sampled_from(RANGES))
    return kind, draw(st.sampled_from(sorted(PREDICATES)))


@st.composite
def groups(draw):
    n_points = draw(st.integers(1, 4))
    points = {}
    for i in range(n_points):
        specs = draw(st.lists(bin_specs(), min_size=1, max_size=4))
        points[f"p{i}"] = [(f"b{j}", kind, spec)
                           for j, (kind, spec) in enumerate(specs)]
    crosses = []
    for c in range(draw(st.integers(0, 2))):
        width = draw(st.integers(1, min(3, n_points)))
        pnames = draw(st.permutations(sorted(points)))[:width]
        product = list(itertools.product(
            *[[b for b, _, _ in points[p]] for p in pnames]))
        combos = draw(st.lists(st.sampled_from(product), min_size=1,
                               max_size=4, unique=True))
        crosses.append((f"x{c}", tuple(pnames), combos))
    observations = draw(st.lists(
        st.fixed_dictionaries({}, optional={
            p: st.sampled_from(range(len(VALUES))) for p in points}),
        max_size=40))
    return points, crosses, observations


def build(points, crosses):
    """The live group and the reference, each with its own predicates."""
    live = CoverGroup("g")
    ref_points, counters = {}, []
    for pname, bins in points.items():
        live_bins, ref_bins = {}, []
        for bname, kind, spec in bins:
            if kind == "predicate":
                live_spec = CountingPredicate(PREDICATES[spec])
                ref_spec = CountingPredicate(PREDICATES[spec])
                counters.append((live_spec, ref_spec))
            else:
                live_spec = ref_spec = spec
            live_bins[bname] = live_spec
            ref_bins.append((bname, ref_spec))
        live.point(pname, live_bins)
        ref_points[pname] = ref_bins
    for cname, pnames, combos in crosses:
        live.cross(cname, pnames, combos)
    return live, ReferenceGroup("g", ref_points, crosses), counters


@settings(max_examples=150, deadline=None)
@given(case=groups(), limit=st.sampled_from([1, 3, MEMO_LIMIT]),
       keyword=st.booleans())
# 1, 1.0 and True (VALUES[1], [7], [5]) on one point whose range bin takes
# 1 and True but not 1.0, then the unhashable [1] (VALUES[11]).
@example(case=({"p0": [("b0", "range", (0, 1)), ("b1", "exact", 1)]},
               [("x0", ("p0",), [("b0",), ("b1",)])],
               [{"p0": 1}, {"p0": 7}, {"p0": 5}, {"p0": 7}, {"p0": 11}]),
         limit=MEMO_LIMIT, keyword=False)
def test_memoised_sampling_matches_the_first_match_reference(case, limit,
                                                             keyword):
    points, crosses, observations = case
    saved = coverage.MEMO_LIMIT
    coverage.MEMO_LIMIT = limit
    try:
        live, ref, counters = build(points, crosses)
        for obs in observations:
            values = {p: VALUES[i] for p, i in obs.items()}
            if keyword:
                live.sample(**values)
            else:
                live.sample_values(values)
            ref.sample(values)
            assert {p: cp.last_bin for p, cp in live.points.items()} \
                == ref.last_bin
        assert live.to_dict() == ref.to_dict()
        for live_pred, ref_pred in counters:
            assert live_pred.calls == ref_pred.calls
        for cp in live.points.values():
            if cp._memo is not None:
                assert len(cp._memo) <= limit
    finally:
        coverage.MEMO_LIMIT = saved


def test_predicates_run_on_every_sample():
    group = CoverGroup("g")
    pred = CountingPredicate(lambda v: v == 1)
    group.point("p", {"one": pred, "other": (0, 9)})
    for _ in range(5):
        group.sample_values({"p": 1})
    assert pred.calls == 5
    assert group.points["p"]._memo is None
    assert group.points["p"].bins["one"].hits == 5


def test_memo_stops_growing_at_its_bound():
    group = CoverGroup("g")
    point = group.point("p", {"low": (0, 99), "high": (100, 1 << 20)})
    total = MEMO_LIMIT + 200
    for value in range(total):
        group.sample_values({"p": value})
    assert len(point._memo) == MEMO_LIMIT
    # Values past the bound are scanned, values inside it are served.
    for value in (0, 150, MEMO_LIMIT + 150):
        group.sample_values({"p": value})
    assert len(point._memo) == MEMO_LIMIT
    assert point.bins["low"].hits == 101
    assert point.bins["high"].hits == total - 100 + 2
    assert point.last_bin == "high"


def test_equal_values_of_different_types_keep_their_own_bins():
    group = CoverGroup("g")
    point = group.point("p", {"range": (1, 1), "exact": 1})
    seen = []
    for value in (1, 1.0, True, 1.0, 1, True):
        group.sample_values({"p": value})
        seen.append(point.last_bin)
    assert seen == ["range", "exact", "range", "exact", "range", "range"]
    group.sample_values({"p": [1]})  # unhashable: scanned, no bin
    assert point.last_bin is None


def test_a_cross_declared_by_point_names_counts_bin_name_tuples():
    cross = CoverCross("x", ["a", "b"], [("lo", "hi"), ("hi", "hi")])
    assert cross.points == ("a", "b")
    cross.sample(("lo", "hi"))
    cross.sample(("lo", "hi"))
    cross.sample(("hi", None))  # a point that hit no bin fires nothing
    cross.sample(("lo", "lo"))  # not a declared combination
    assert cross.combos == {("lo", "hi"): 2, ("hi", "hi"): 0}
    assert cross.unhit() == ["hixhi"]
