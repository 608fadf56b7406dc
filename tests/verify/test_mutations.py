"""Mutation smoke test: every seeded protocol bug must be caught.

Five deliberate bugs hide behind construction-time switches in the
primitives and the queue container (:mod:`repro.verify.mutate`).  For each
one, a constrained-random session on the matching target must flag at
least one violation — and with the switch off, the same session must be
clean.  This is the verification subsystem verifying itself.
"""

import functools

import pytest

from repro.verify import mutate, verify

#: mutation name -> (target exercising it, cycle budget)
MUTATION_TARGETS = {
    "fifo.drop_full_guard": ("queue/fifo", 800),
    "fifo.pop_empty_guard": ("queue/fifo", 800),
    "fifo.stale_dout": ("queue/fifo", 800),
    "lifo.reverse_order": ("stack/lifo", 800),
    "queue.ready_when_full": ("queue/fifo", 800),
}


def test_every_known_mutation_has_a_smoke_target():
    assert set(MUTATION_TARGETS) == set(mutate.KNOWN)


@pytest.mark.parametrize("name", sorted(MUTATION_TARGETS))
def test_monitors_catch_seeded_protocol_bug(name):
    target, cycles = MUTATION_TARGETS[name]
    with mutate.inject(name):
        mutated = verify(target, seed=0, cycles=cycles)
    assert not mutated.ok, \
        f"mutation {name} went undetected on {target} " \
        f"(reproduce: {mutated.repro_command()})"
    # The switch is construction-time: a fresh DUT built after the context
    # exits behaves correctly again under the identical stimulus.
    clean = verify(target, seed=0, cycles=cycles)
    assert clean.ok, [str(v) for v in clean.violations[:5]]


#: Mutation escape: the exact monitor rules each fault trips when driven
#: by *search-proposed* seeds — the per-fault blast radius.  The sets are
#: deterministic (propose_seeds and the sessions share one root seed), so
#: an escape (fault undetected) or a radius change (fault detected by
#: different monitors) both fail loudly.
SEARCH_BLAST_RADIUS = {
    "fifo.drop_full_guard": {
        "queue/fifo.conservation", "queue/fifo.data-mismatch",
        "queue/fifo.data-stability", "queue/fifo.occupancy-bound",
        "queue/fifo.phantom-valid", "queue/fifo.scoreboard",
        "queue/fifo.valid-drop"},
    "fifo.pop_empty_guard": {
        "queue/fifo.conservation", "queue/fifo.data-mismatch",
        "queue/fifo.occupancy-bound", "queue/fifo.phantom-valid",
        "queue/fifo.scoreboard"},
    "fifo.stale_dout": {
        "queue/fifo.data-mismatch", "queue/fifo.scoreboard"},
    "lifo.reverse_order": {
        "stack/lifo.data-mismatch", "stack/lifo.scoreboard"},
    "queue.ready_when_full": {
        "queue/fifo.conservation", "queue/fifo.data-mismatch",
        "queue/fifo.scoreboard"},
}


@functools.lru_cache(maxsize=None)
def search_proposed_seed(target, cycles):
    """The seed a fault-free one-session coverage search spends its budget
    on (cached: one healthy search per (target, cycles) for the module)."""
    from repro.search import propose_seeds

    (seed,) = propose_seeds(target, 1, cycles=cycles)
    return seed


@pytest.mark.parametrize("name", sorted(SEARCH_BLAST_RADIUS))
def test_search_proposed_seeds_catch_every_seeded_fault(name):
    """No mutation escapes the search's seed budget.

    The coverage-directed search proposes its seeds against the *healthy*
    design — faults must not get to vote.  Within the one-session budget
    the fixed smoke test spends, the proposed seed must still catch every
    seeded fault, and trip exactly the pinned monitor rules."""
    target, cycles = MUTATION_TARGETS[name]
    seed = search_proposed_seed(target, cycles)
    with mutate.inject(name):
        mutated = verify(target, seed=seed, cycles=cycles)
    assert not mutated.ok, \
        f"mutation {name} escaped search-proposed seed {seed}"
    assert {v.rule for v in mutated.violations} == SEARCH_BLAST_RADIUS[name]
    # And the same session is clean once the switch drops.
    assert verify(target, seed=seed, cycles=cycles).ok


def test_mutation_registry_rejects_unknown_names():
    with pytest.raises(ValueError):
        mutate.enable("no.such.mutation")
    assert not mutate.enabled("no.such.mutation")


def test_inject_restores_state_on_exception():
    with pytest.raises(RuntimeError):
        with mutate.inject("fifo.stale_dout"):
            assert mutate.enabled("fifo.stale_dout")
            raise RuntimeError("boom")
    assert not mutate.enabled("fifo.stale_dout")
    assert mutate.active() == set()
