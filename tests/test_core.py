"""Core vocabulary: phase automaton, descriptors, status values."""

import itertools
import os

import pytest

from votingfarm.core import (
    PHASE_STEPS,
    DuplicateIdent,
    EmptyFarm,
    IllegalTransition,
    NonContiguousIdents,
    ValidationError,
    VfStatus,
    VfStatusCode,
    VoteObject,
    VoterPhase,
    phase_transition,
    validate_descriptor,
)
from votingfarm.recovery.lang import load_definitions
from votingfarm.scenario import bundled_dir


EDGES = {
    (VoterPhase.VFP_INIT, VoterPhase.VFP_BROADCAST),
    (VoterPhase.VFP_BROADCAST, VoterPhase.VFP_VOTING),
    (VoterPhase.VFP_VOTING, VoterPhase.VFP_SUCCESS),
    (VoterPhase.VFP_VOTING, VoterPhase.VFP_FAILURE),
    (VoterPhase.VFP_SUCCESS, VoterPhase.VFP_INIT),
    (VoterPhase.VFP_FAILURE, VoterPhase.VFP_INIT),
}


class TestPhaseAutomaton:
    def test_happy_cycle(self):
        p = VoterPhase.VFP_INIT
        for to in (VoterPhase.VFP_BROADCAST, VoterPhase.VFP_VOTING, VoterPhase.VFP_SUCCESS, VoterPhase.VFP_INIT):
            p = phase_transition(p, to)
            assert p is to

    def test_failure_branch_resets(self):
        p = phase_transition(VoterPhase.VFP_VOTING, VoterPhase.VFP_FAILURE)
        assert p is VoterPhase.VFP_FAILURE
        assert phase_transition(p, VoterPhase.VFP_INIT) is VoterPhase.VFP_INIT

    def test_every_undeclared_pair_raises(self):
        assert PHASE_STEPS == EDGES
        for phase, to in itertools.product(VoterPhase, repeat=2):  # all 25 ordered pairs
            if (phase, to) in EDGES:
                assert phase_transition(phase, to) is to
            else:
                with pytest.raises(IllegalTransition, match=f"{to} not legal in {phase}"):
                    phase_transition(phase, to)

    def test_new_input_needs_reset_first(self):
        # the specific mistake the automaton exists to catch
        with pytest.raises(IllegalTransition):
            phase_transition(VoterPhase.VFP_SUCCESS, VoterPhase.VFP_BROADCAST)

    def test_phase_codes_are_a_bijection(self):
        assert sorted(p.value for p in VoterPhase) == [0, 1, 2, 3, 4]
        assert [str(p) for p in VoterPhase] == [p.name for p in VoterPhase]

    def test_phase_codes_match_the_bundled_header(self):
        # Strategies compare a voter's phase with the defines of
        # vf_phases.h, so the header and the enum must agree exactly.
        defines = load_definitions(os.path.join(bundled_dir(), "vf_phases.h"))
        assert defines == {p.name: p.value for p in VoterPhase}


class TestDescriptor:
    """A descriptor is its ordered list of (node, ident) rows."""

    def test_tmr_descriptor_valid(self):
        validate_descriptor([(1, 1), (2, 2), (3, 3)])

    def test_empty_farm(self):
        with pytest.raises(EmptyFarm):
            validate_descriptor([])

    def test_duplicate_ident(self):
        with pytest.raises(DuplicateIdent, match="ident 1 added twice"):
            validate_descriptor([(1, 1), (2, 1)])

    def test_gap_in_idents(self):
        with pytest.raises(NonContiguousIdents, match=r"idents \[1, 3\] are not 1..2"):
            validate_descriptor([(1, 1), (2, 3)])

    def test_idents_need_not_arrive_in_order(self):
        validate_descriptor([(5, 2), (6, 1)])


def test_vote_object_payload_must_be_bytes():
    with pytest.raises(ValidationError):
        VoteObject(payload="not bytes")


def test_vote_object_defaults():
    obj = VoteObject(b"\x01", valid=False, source=3)
    assert not obj.valid and obj.source == 3
    assert VoteObject().valid


def test_status_str_shows_code_and_detail():
    st = VfStatus(VfStatusCode.VF_DONE, "ok", session=0)
    assert str(st) == "VF_DONE(ok)"
    assert st.session == 0
    assert VfStatus(VfStatusCode.VF_NONE, "timeout").session == -1


def test_status_and_vote_object_are_read_only_tuples_with_their_old_reprs():
    # One of each is built per reply and per ballot item: a tuple with
    # no per-instance __dict__, whose fields, repr and defaults are those
    # of the frozen dataclasses they replace.
    status = VfStatus(code=VfStatusCode.VF_DONE, session=4)
    item = VoteObject(source=2, payload=b"\x01")
    for value in (status, item):
        assert isinstance(value, tuple) and not hasattr(value, "__dict__")
    assert status == (VfStatusCode.VF_DONE, "ok", 4) and item == (b"\x01", True, 2)
    assert repr(status) == "VfStatus(code=<VfStatusCode.VF_DONE: 'VF_DONE'>, detail='ok', session=4)"
    assert repr(VfStatus(VfStatusCode.VF_NONE, "timeout")) == (
        "VfStatus(code=<VfStatusCode.VF_NONE: 'VF_NONE'>, detail='timeout', session=-1)")
    assert repr(item) == "VoteObject(payload=b'\\x01', valid=True, source=2)"
    assert repr(VoteObject()) == "VoteObject(payload=b'', valid=True, source=0)"
    for value, field in ((status, "detail"), (item, "valid"), (item, "weight")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(ValidationError, match="payload must be bytes"):
        VoteObject("01", source=1)
