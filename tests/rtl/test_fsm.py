"""Unit tests for the FSM helper."""

import pytest

from repro.rtl import Component, ElaborationError, FSM, Simulator


class Stepper(Component):
    """Three-state machine cycling IDLE -> RUN -> DONE -> IDLE."""

    def __init__(self):
        super().__init__("stepper")
        self.fsm = FSM(self, ["IDLE", "RUN", "DONE"], name="ctrl")

        @self.seq
        def advance():
            if self.fsm.is_in("IDLE"):
                self.fsm.goto("RUN")
            elif self.fsm.is_in("RUN"):
                self.fsm.goto("DONE")
            else:
                self.fsm.goto("IDLE")


def test_encoding_and_decoding():
    comp = Component("c")
    fsm = FSM(comp, ["A", "B", "C"])
    assert fsm.encode("A") == 0
    assert fsm.encode("C") == 2
    assert fsm.decode(1) == "B"
    assert fsm.A == 0 and fsm.B == 1 and fsm.C == 2
    assert fsm.num_states == 3
    assert fsm.width == 2


def test_state_register_width_single_state():
    comp = Component("c")
    fsm = FSM(comp, ["ONLY"])
    assert fsm.width == 1


def test_initial_state_selection():
    comp = Component("c")
    fsm = FSM(comp, ["A", "B"], initial="B")
    assert fsm.current == "B"


def test_invalid_configurations():
    comp = Component("c")
    with pytest.raises(ElaborationError):
        FSM(comp, [])
    with pytest.raises(ElaborationError):
        FSM(comp, ["A", "A"])
    with pytest.raises(ElaborationError):
        FSM(comp, ["A"], initial="Z")
    fsm = FSM(comp, ["A", "B"])
    with pytest.raises(ElaborationError):
        fsm.encode("Z")
    with pytest.raises(ElaborationError):
        fsm.decode(5)


def test_transitions_in_simulation():
    design = Stepper()
    sim = Simulator(design)
    assert design.fsm.current == "IDLE"
    sim.step()
    assert design.fsm.current == "RUN"
    sim.step()
    assert design.fsm.current == "DONE"
    sim.step()
    assert design.fsm.current == "IDLE"
    observed = design.fsm.observed_transitions()
    assert ("IDLE", "RUN") in observed
    assert ("RUN", "DONE") in observed
    assert ("DONE", "IDLE") in observed


def test_stay_keeps_state():
    comp = Component("c")
    fsm = FSM(comp, ["A", "B"])

    @comp.seq
    def hold():
        fsm.stay()

    sim = Simulator(comp)
    sim.step(3)
    assert fsm.current == "A"


def test_fsm_adds_state_bits_to_component():
    comp = Component("c")
    FSM(comp, ["A", "B", "C", "D", "E"])
    assert comp.state_bits() == 3


def test_repr_mentions_current_state():
    comp = Component("c")
    fsm = FSM(comp, ["A", "B"], name="ctrl")
    assert "ctrl" in repr(fsm)
    assert "A" in repr(fsm)


@pytest.mark.parametrize("name", ["state", "goto", "width"])
def test_state_name_may_not_shadow_an_fsm_attribute(name):
    comp = Component("c")
    with pytest.raises(ElaborationError, match=repr(name)):
        FSM(comp, ["IDLE", name])
