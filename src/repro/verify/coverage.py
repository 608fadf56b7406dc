"""Functional coverage: covergroups, bins, crosses, merging and JSON export.

The SystemVerilog covergroup idea, reduced to what the reproduction needs:

* a :class:`CoverPoint` declares named *bins* over the values a monitor
  observes (exact values, inclusive ranges or predicates);
* a :class:`CoverCross` declares which *combinations* of bins across two or
  more points must be seen together — only the combinations listed are
  goals, because most full cross-products contain unreachable cells (a FIFO
  cannot be full and empty in the same cycle);
* a :class:`CoverGroup` owns points and crosses and is sampled once per
  cycle with the monitor's observation;
* a :class:`CoverageDB` aggregates groups across targets, seeds and runs
  (hit counts add), and round-trips through JSON so CI can upload one
  merged artifact per run.

Coverage closure — every declared bin hit at least once — is an acceptance
criterion enforced by ``tests/verify/test_session.py`` for every shipped
container binding.
"""

from __future__ import annotations

import json
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

#: What a bin can be declared as: an exact value, an inclusive (lo, hi)
#: range, or a predicate.
BinSpec = Union[int, str, Tuple[int, int], Callable[[object], bool]]


class CoverageError(Exception):
    """Raised for malformed covergroup declarations or merge mismatches."""


class CoverBin:
    """One named bin of a coverpoint."""

    __slots__ = ("name", "_spec", "hits")

    def __init__(self, name: str, spec: BinSpec) -> None:
        self.name = name
        self._spec = spec
        self.hits = 0

    def matches(self, value: object) -> bool:
        spec = self._spec
        if callable(spec):
            return bool(spec(value))
        if isinstance(spec, tuple):
            lo, hi = spec
            return isinstance(value, int) and lo <= value <= hi
        return value == spec

    def __repr__(self) -> str:
        return f"CoverBin({self.name!r}, hits={self.hits})"


class CoverPoint:
    """A named observation with a set of bins."""

    def __init__(self, name: str, bins: Dict[str, BinSpec]) -> None:
        if not bins:
            raise CoverageError(f"coverpoint {name!r} declares no bins")
        self.name = name
        self.bins: Dict[str, CoverBin] = {
            bname: CoverBin(bname, spec) for bname, spec in bins.items()}
        #: Bin name matched by the most recent sample (None if no bin hit).
        self.last_bin: Optional[str] = None

    def sample(self, value: object) -> Optional[str]:
        """Record ``value``; returns the first matching bin's name."""
        self.last_bin = None
        for cbin in self.bins.values():
            if cbin.matches(value):
                cbin.hits += 1
                self.last_bin = cbin.name
                return cbin.name
        return None

    @property
    def hit_count(self) -> int:
        return sum(1 for b in self.bins.values() if b.hits)

    def unhit(self) -> List[str]:
        return [b.name for b in self.bins.values() if not b.hits]


class CoverCross:
    """Declared combinations of bins across several coverpoints."""

    def __init__(self, name: str, points: Sequence[str],
                 combos: Iterable[Sequence[str]]) -> None:
        self.name = name
        self.points = tuple(points)
        self.combos: Dict[Tuple[str, ...], int] = {
            tuple(combo): 0 for combo in combos}
        if not self.combos:
            raise CoverageError(f"cross {name!r} declares no combinations")
        for combo in self.combos:
            if len(combo) != len(self.points):
                raise CoverageError(
                    f"cross {name!r}: combo {combo} does not match points "
                    f"{self.points}")

    def sample(self, bin_names: Tuple[Optional[str], ...]) -> None:
        if None in bin_names:
            return
        key = tuple(bin_names)  # type: ignore[arg-type]
        if key in self.combos:
            self.combos[key] += 1

    @property
    def hit_count(self) -> int:
        return sum(1 for hits in self.combos.values() if hits)

    def unhit(self) -> List[str]:
        return ["x".join(combo) for combo, hits in self.combos.items()
                if not hits]


class CoverGroup:
    """A named collection of coverpoints and crosses, sampled per cycle."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: Dict[str, CoverPoint] = {}
        self.crosses: Dict[str, CoverCross] = {}
        self.samples = 0

    # -- declaration -------------------------------------------------------

    def point(self, name: str, bins: Dict[str, BinSpec]) -> CoverPoint:
        """Declare a coverpoint (returns it for chaining)."""
        if name in self.points:
            raise CoverageError(f"coverpoint {name!r} already declared")
        cp = CoverPoint(name, bins)
        self.points[name] = cp
        return cp

    def cross(self, name: str, points: Sequence[str],
              combos: Iterable[Sequence[str]]) -> CoverCross:
        """Declare a cross over previously-declared points."""
        for pname in points:
            if pname not in self.points:
                raise CoverageError(
                    f"cross {name!r} references unknown point {pname!r}")
        if name in self.crosses:
            raise CoverageError(f"cross {name!r} already declared")
        cc = CoverCross(name, points, combos)
        self.crosses[name] = cc
        return cc

    # -- sampling ----------------------------------------------------------

    def sample(self, **values: object) -> None:
        """Sample named coverpoints; crosses fire when all their points did.

        Points not named in ``values`` are skipped this cycle (their
        ``last_bin`` is cleared so stale bins never feed a cross).
        """
        self.samples += 1
        for pname, cp in self.points.items():
            if pname in values:
                cp.sample(values[pname])
            else:
                cp.last_bin = None
        for cc in self.crosses.values():
            cc.sample(tuple(self.points[p].last_bin for p in cc.points))

    # -- results -----------------------------------------------------------

    @property
    def goal_count(self) -> int:
        return (sum(len(cp.bins) for cp in self.points.values())
                + sum(len(cc.combos) for cc in self.crosses.values()))

    @property
    def hit_count(self) -> int:
        return (sum(cp.hit_count for cp in self.points.values())
                + sum(cc.hit_count for cc in self.crosses.values()))

    @property
    def percent(self) -> float:
        goals = self.goal_count
        return 100.0 * self.hit_count / goals if goals else 100.0

    def unhit(self) -> List[str]:
        """Dotted names of every unhit bin and cross combination."""
        missing: List[str] = []
        for cp in self.points.values():
            missing.extend(f"{self.name}.{cp.name}.{b}" for b in cp.unhit())
        for cc in self.crosses.values():
            missing.extend(f"{self.name}.{cc.name}.{c}" for c in cc.unhit())
        return missing

    # -- serialisation / merging ------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "points": {
                pname: {b.name: b.hits for b in cp.bins.values()}
                for pname, cp in self.points.items()},
            "crosses": {
                cname: {
                    "points": list(cc.points),
                    "hits": {"|".join(combo): hits
                             for combo, hits in cc.combos.items()},
                }
                for cname, cc in self.crosses.items()},
        }

    def merge_dict(self, data: dict) -> None:
        """Add hit counts from a serialised group with the same shape."""
        if data.get("name") != self.name:
            raise CoverageError(
                f"cannot merge group {data.get('name')!r} into {self.name!r}")
        self.samples += int(data.get("samples", 0))
        for pname, bins in data.get("points", {}).items():
            cp = self.points.get(pname)
            if cp is None:
                raise CoverageError(
                    f"merge: unknown coverpoint {self.name}.{pname}")
            for bname, hits in bins.items():
                if bname not in cp.bins:
                    raise CoverageError(
                        f"merge: unknown bin {self.name}.{pname}.{bname}")
                cp.bins[bname].hits += int(hits)
        for cname, cdata in data.get("crosses", {}).items():
            cc = self.crosses.get(cname)
            if cc is None:
                raise CoverageError(f"merge: unknown cross {self.name}.{cname}")
            for key, hits in cdata.get("hits", {}).items():
                combo = tuple(key.split("|"))
                if combo not in cc.combos:
                    raise CoverageError(
                        f"merge: unknown combo {self.name}.{cname}.{key}")
                cc.combos[combo] += int(hits)


class CoverageDB:
    """Merged coverage across targets, seeds and runs (JSON round-trip)."""

    def __init__(self) -> None:
        self._groups: Dict[str, dict] = {}

    def add(self, group: Union[CoverGroup, dict]) -> None:
        """Merge one group (live or serialised) into the database."""
        data = group.to_dict() if isinstance(group, CoverGroup) else group
        name = data["name"]
        existing = self._groups.get(name)
        if existing is None:
            self._groups[name] = json.loads(json.dumps(data))  # deep copy
            return
        existing["samples"] = existing.get("samples", 0) + data.get("samples", 0)
        for pname, bins in data.get("points", {}).items():
            dst = existing.setdefault("points", {}).setdefault(pname, {})
            for bname, hits in bins.items():
                dst[bname] = dst.get(bname, 0) + hits
        for cname, cdata in data.get("crosses", {}).items():
            dst_cross = existing.setdefault("crosses", {}).setdefault(
                cname, {"points": cdata.get("points", []), "hits": {}})
            for key, hits in cdata.get("hits", {}).items():
                dst_cross["hits"][key] = dst_cross["hits"].get(key, 0) + hits

    def add_delta(self, group: Union[CoverGroup, dict]) -> List[str]:
        """Merge one group and return the goal names it *newly* closed.

        The returned names use the same dotted spelling as :meth:`unhit`
        (sorted), so a caller can reward marginal bin/cross closure —
        the fitness signal of coverage-directed search — without diffing
        whole databases.  Goals that were already hit contribute nothing;
        an empty list means the merge moved no goal from open to closed.
        """
        data = group.to_dict() if isinstance(group, CoverGroup) else group
        name = data["name"]
        before = self._hit_goals(name)
        self.add(data)
        return sorted(self._hit_goals(name) - before)

    def _goals(self, name: Optional[str] = None
               ) -> Iterator[Tuple[str, int]]:
        """``(dotted goal name, hits)`` of every goal of one group, or of
        every group, in :meth:`unhit` order (raises ``KeyError`` for an
        unknown group)."""
        for gname in sorted(self._groups) if name is None else (name,):
            data = self._groups[gname]
            for pname, bins in sorted(data.get("points", {}).items()):
                for b, hits in sorted(bins.items()):
                    yield f"{gname}.{pname}.{b}", hits
            for cname, cdata in sorted(data.get("crosses", {}).items()):
                for key, hits in sorted(cdata["hits"].items()):
                    yield f"{gname}.{cname}.{key.replace('|', 'x')}", hits

    def _hit_goals(self, name: str) -> set:
        """Dotted names of every *hit* goal of one group (empty if absent)."""
        if name not in self._groups:
            return set()
        return {goal for goal, hits in self._goals(name) if hits}

    def open_goals(self, name: Optional[str] = None) -> List[str]:
        """Unhit goal names, optionally restricted to one group.

        A group the database has never seen has no *declared* goals here —
        callers treating "never sampled" as "everything open" (the search
        driver does) must check :attr:`groups` membership themselves.
        """
        if name is not None and name not in self._groups:
            return []
        return [goal for goal, hits in self._goals(name) if not hits]

    def merge(self, other: "CoverageDB") -> None:
        for data in other._groups.values():
            self.add(data)

    @property
    def groups(self) -> Dict[str, dict]:
        return dict(self._groups)

    def percent(self, name: Optional[str] = None) -> float:
        """Hit percentage of one group, or of every goal in the database."""
        hit = [bool(hits) for _, hits in self._goals(name)]
        return 100.0 * sum(hit) / len(hit) if hit else 100.0

    def unhit(self) -> List[str]:
        return self.open_goals()

    # -- JSON --------------------------------------------------------------

    def to_json(self, indent: int = 2) -> str:
        payload = {"format": "repro-coverage-v1",
                   "groups": {n: self._groups[n] for n in sorted(self._groups)}}
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CoverageDB":
        payload = json.loads(text)
        if payload.get("format") != "repro-coverage-v1":
            raise CoverageError(
                f"unknown coverage format {payload.get('format')!r}")
        db = cls()
        for data in payload.get("groups", {}).values():
            db.add(data)
        return db

    def report(self) -> str:
        """A compact plain-text summary, one line per group."""
        lines = [f"coverage: {self.percent():.1f}% of "
                 f"{sum(1 for _ in self._groups)} group(s)"]
        for name in sorted(self._groups):
            lines.append(f"  {name}: {self.percent(name):.1f}%")
        missing = self.unhit()
        if missing:
            lines.append(f"  unhit ({len(missing)}):")
            lines.extend(f"    {m}" for m in missing)
        return "\n".join(lines)
