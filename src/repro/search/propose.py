"""Proposal operators: which (seed | design point) to simulate next.

Two proposers share one shape — an epsilon-greedy bandit
(:class:`~repro.search.bandit.EpsilonGreedy`) chooses among proposal
*operators*, each operator turns the evaluation history into one concrete
candidate, and the driver feeds the realised reward (marginal coverage
closure, or Pareto acceptance) back into the bandit:

* :class:`SeedProposer` proposes stimulus root seeds for one verification
  target.  ``scan`` walks the untried non-negative integers in order (the
  grid baseline's enumeration); ``mutate`` XOR-flips low bits of the
  best-gaining seed; ``cross`` recombines the bit patterns of the two
  best-gaining seeds.
* :class:`DesignProposer` proposes
  :class:`~repro.explore.grid.DesignPoint` configurations.  ``scan``
  walks the cartesian grid in :func:`~repro.explore.grid.expand_grid`
  order; ``mutate`` re-draws one axis of a random Pareto-frontier member;
  ``cross`` recombines two frontier members axis by axis.

The operator bandits start with a ``scan`` prior and ``explore_untried``
off: exploitation sticks with plain enumeration until mutate/crossover
*earn* budget through epsilon exploration — a wasted proposal costs a real
simulation, so the exotic operators get no free trials.

Every random draw comes from an injected :class:`random.Random`; one root
seed reproduces every proposal byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..explore.grid import (
    DESIGN_BINDINGS,
    DESIGN_FORMATS,
    DesignPoint,
    expand_grid,
    is_valid_point,
)
from .bandit import EpsilonGreedy

#: Operator names, in scan-first order (also the fallback chain).
SEED_OPERATORS = ("scan", "mutate", "cross")

#: Pseudo-counts seeding the operator bandits: ``scan`` starts as the
#: known-good incumbent so greedy selection never hands mutate/cross a
#: free simulation before epsilon exploration picks them.
_SCAN_PRIOR = {"scan": (1, 1.0)}


class SeedProposer:
    """Propose the next stimulus seeds for one verification target."""

    def __init__(self, target: str, rng: random.Random,
                 epsilon: float = 0.1) -> None:
        self.target = target
        self._rng = rng
        self.ops = EpsilonGreedy(SEED_OPERATORS, epsilon=epsilon, rng=rng,
                                 explore_untried=False,
                                 prior=dict(_SCAN_PRIOR))
        #: Seeds handed out, in proposal order (the trajectory).
        self.proposed: List[int] = []
        self._proposed_set: set = set()
        #: Seed → number of goals it newly closed when evaluated.
        self.gains: Dict[int, int] = {}

    # -- operators ---------------------------------------------------------

    def _scan(self) -> int:
        seed = 0
        while seed in self._proposed_set:
            seed += 1
        return seed

    def _gaining(self) -> List[int]:
        """Seeds that closed goals, best gain first (ties: smaller seed)."""
        return sorted((s for s, g in self.gains.items() if g > 0),
                      key=lambda s: (-self.gains[s], s))

    def _mutate(self) -> Optional[int]:
        parents = self._gaining()
        if not parents:
            return None
        parent = parents[0]
        return parent ^ self._rng.randint(1, 0xFF)

    def _cross(self) -> Optional[int]:
        parents = self._gaining()
        if len(parents) < 2:
            return None
        a, b = parents[0], parents[1]
        width = max(a.bit_length(), b.bit_length(), 1)
        mask = self._rng.getrandbits(width)
        return (a & mask) | (b & (((1 << width) - 1) ^ mask))

    # -- API ---------------------------------------------------------------

    def available_ops(self) -> List[str]:
        gaining = self._gaining()
        ops = ["scan"]
        if gaining:
            ops.append("mutate")
        if len(gaining) >= 2:
            ops.append("cross")
        return ops

    def propose(self) -> Tuple[int, str]:
        """One fresh ``(seed, operator)`` pair (never a repeat seed)."""
        op = self.ops.select(self.available_ops())
        seed = {"scan": self._scan, "mutate": self._mutate,
                "cross": self._cross}[op]()
        if seed is None or seed in self._proposed_set:
            # The operator re-derived something already tried (or had no
            # parents): charge the duplicate to the operator as a zero-gain
            # pull and fall back to plain enumeration for the actual seed.
            if seed is not None:
                self.ops.update(op, 0.0)
            op = "scan"
            seed = self._scan()
        self.proposed.append(seed)
        self._proposed_set.add(seed)
        return seed, op

    def propose_batch(self, count: int) -> List[Tuple[int, str]]:
        """``count`` distinct fresh proposals (one session each)."""
        return [self.propose() for _ in range(max(0, count))]

    def update(self, seed: int, op: str, gain: int) -> None:
        """Feed back how many goals the evaluated seed newly closed."""
        self.gains[seed] = int(gain)
        self.ops.update(op, float(gain))


class DesignProposer:
    """Propose design points for the Pareto-frontier search.

    ``axes`` are the :func:`~repro.explore.grid.expand_grid` axis domains;
    the ``scan`` operator enumerates exactly that grid, so an exhausted
    proposer (``propose()`` returning ``None`` with no frontier parents to
    mutate) means the whole reachable space has been evaluated.
    """

    #: Bounded retries for mutate/cross before falling back to scan — a
    #: dead-end draw (invalid or duplicate point) must not loop forever.
    MAX_ATTEMPTS = 8

    def __init__(self, rng: random.Random,
                 designs: Sequence[str] = ("saa2vga", "blur"),
                 bindings: Optional[Sequence[str]] = None,
                 pixel_formats: Sequence[str] = ("gray8",),
                 frame_sizes: Sequence[Tuple[int, int]] = ((8, 8), (16, 12)),
                 capacities: Sequence[int] = (4, 8, 16),
                 epsilon: float = 0.2) -> None:
        self._rng = rng
        self.designs = tuple(designs)
        self.bindings = None if bindings is None else tuple(bindings)
        self.pixel_formats = tuple(pixel_formats)
        self.frame_sizes = tuple((int(w), int(h)) for w, h in frame_sizes)
        self.capacities = tuple(int(c) for c in capacities)
        self._scan_order = expand_grid(
            designs=self.designs, bindings=self.bindings,
            pixel_formats=self.pixel_formats, frame_sizes=self.frame_sizes,
            capacities=self.capacities)
        self._scan_index = 0
        self.ops = EpsilonGreedy(SEED_OPERATORS, epsilon=epsilon, rng=rng,
                                 explore_untried=False,
                                 prior=dict(_SCAN_PRIOR))
        self.proposed: List[DesignPoint] = []
        self._proposed_keys: set = set()
        #: Points currently credited as parents (accepted to the frontier),
        #: in acceptance order.
        self.parents: List[DesignPoint] = []

    # -- operators ---------------------------------------------------------

    def _scan(self) -> Optional[DesignPoint]:
        while self._scan_index < len(self._scan_order):
            point = self._scan_order[self._scan_index]
            self._scan_index += 1
            if point.key() not in self._proposed_keys:
                return point
        return None

    def _axis_values(self, axis: str, point: DesignPoint) -> List[object]:
        if axis == "design":
            return [d for d in self.designs if d != point.design]
        if axis == "binding":
            supported = DESIGN_BINDINGS.get(point.design, ())
            allowed = (supported if self.bindings is None
                       else [b for b in self.bindings if b in supported])
            return [b for b in allowed if b != point.binding]
        if axis == "pixel_format":
            supported = DESIGN_FORMATS.get(point.design, ())
            return [f for f in self.pixel_formats
                    if f in supported and f != point.pixel_format]
        if axis == "frame":
            current = (point.frame_width, point.frame_height)
            return [f for f in self.frame_sizes if f != current]
        return [c for c in self.capacities if c != point.capacity]

    def _apply_axis(self, point: DesignPoint, axis: str,
                    value: object) -> DesignPoint:
        if axis == "frame":
            width, height = value  # type: ignore[misc]
            return replace(point, frame_width=width, frame_height=height)
        if axis == "design":
            # A new design family may not support the old binding/format;
            # re-draw both from its supported sets.
            design = str(value)
            bindings = DESIGN_BINDINGS.get(design, ())
            formats = [f for f in self.pixel_formats
                       if f in DESIGN_FORMATS.get(design, ())]
            if not bindings or not formats:
                return point  # unfixable: caller discards the duplicate
            return replace(
                point, design=design,
                binding=bindings[self._rng.randrange(len(bindings))],
                pixel_format=formats[self._rng.randrange(len(formats))])
        return replace(point, **{axis: value})

    def _mutate(self) -> Optional[DesignPoint]:
        if not self.parents:
            return None
        parent = self.parents[self._rng.randrange(len(self.parents))]
        axes = ["design", "binding", "pixel_format", "frame", "capacity"]
        axis = axes[self._rng.randrange(len(axes))]
        values = self._axis_values(axis, parent)
        if not values:
            return None
        return self._apply_axis(parent, axis,
                                values[self._rng.randrange(len(values))])

    def _cross(self) -> Optional[DesignPoint]:
        if len(self.parents) < 2:
            return None
        a = self.parents[self._rng.randrange(len(self.parents))]
        b = self.parents[self._rng.randrange(len(self.parents))]
        if a.key() == b.key():
            return None
        # Structural axes travel together (design fixes its binding/format
        # support); payload axes mix freely.
        head, tail = (a, b) if self._rng.random() < 0.5 else (b, a)
        frame = ((head.frame_width, head.frame_height)
                 if self._rng.random() < 0.5
                 else (tail.frame_width, tail.frame_height))
        capacity = (head.capacity if self._rng.random() < 0.5
                    else tail.capacity)
        return replace(head, frame_width=frame[0], frame_height=frame[1],
                       capacity=capacity)

    # -- API ---------------------------------------------------------------

    def available_ops(self) -> List[str]:
        ops = ["scan"]
        if self.parents:
            ops.append("mutate")
        if len(self.parents) >= 2:
            ops.append("cross")
        return ops

    def _fresh(self, point: Optional[DesignPoint]) -> Optional[DesignPoint]:
        """``point`` if it is new and buildable, else ``None``."""
        if point is None or point.key() in self._proposed_keys:
            return None
        ok, _ = is_valid_point(point)
        return point if ok else None

    def propose(self) -> Optional[Tuple[DesignPoint, str]]:
        """One fresh ``(point, operator)`` pair; ``None`` when exhausted."""
        op = self.ops.select(self.available_ops())
        make = {"scan": self._scan, "mutate": self._mutate,
                "cross": self._cross}[op]
        point = None
        if op == "scan":
            point = self._fresh(self._scan())
        else:
            for _ in range(self.MAX_ATTEMPTS):
                point = self._fresh(make())
                if point is not None:
                    break
            if point is None:
                # Nothing new in this operator's neighbourhood: charge it
                # a zero-reward pull and fall back to enumeration.
                self.ops.update(op, 0.0)
                op = "scan"
                point = self._fresh(self._scan())
        if point is None:
            return None
        self.proposed.append(point)
        self._proposed_keys.add(point.key())
        return point, op

    def update(self, point: DesignPoint, op: str, accepted: bool) -> None:
        """Feed back whether the evaluated point joined the frontier."""
        if accepted:
            self.parents.append(point)
        self.ops.update(op, 1.0 if accepted else 0.0)
