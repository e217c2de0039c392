"""Core vocabulary: phase automaton, descriptors, status values."""

import pytest

from votingfarm.core import (
    PHASE_CODES,
    DuplicateIdent,
    EmptyFarm,
    FarmDescriptor,
    IllegalTransition,
    NonContiguousIdents,
    ValidationError,
    VfStatus,
    VfStatusCode,
    VoteObject,
    VoterEvent,
    VoterPhase,
    phase_transition,
    validate_descriptor,
)


class TestPhaseAutomaton:
    def test_happy_cycle(self):
        p = VoterPhase.VFP_INIT
        p = phase_transition(p, VoterEvent.INPUT_ARRIVED)
        assert p is VoterPhase.VFP_BROADCAST
        p = phase_transition(p, VoterEvent.BROADCAST_COMPLETE)
        assert p is VoterPhase.VFP_VOTING
        p = phase_transition(p, VoterEvent.VOTE_OK)
        assert p is VoterPhase.VFP_SUCCESS
        p = phase_transition(p, VoterEvent.RESET)
        assert p is VoterPhase.VFP_INIT

    def test_failure_branch_resets(self):
        p = phase_transition(VoterPhase.VFP_VOTING, VoterEvent.VOTE_FAIL)
        assert p is VoterPhase.VFP_FAILURE
        assert phase_transition(p, VoterEvent.RESET) is VoterPhase.VFP_INIT

    def test_every_undeclared_pair_raises(self):
        legal = {
            (VoterPhase.VFP_INIT, VoterEvent.INPUT_ARRIVED),
            (VoterPhase.VFP_BROADCAST, VoterEvent.BROADCAST_COMPLETE),
            (VoterPhase.VFP_VOTING, VoterEvent.VOTE_OK),
            (VoterPhase.VFP_VOTING, VoterEvent.VOTE_FAIL),
            (VoterPhase.VFP_SUCCESS, VoterEvent.RESET),
            (VoterPhase.VFP_FAILURE, VoterEvent.RESET),
        }
        for phase in VoterPhase:
            for event in VoterEvent:
                if (phase, event) in legal:
                    phase_transition(phase, event)
                else:
                    with pytest.raises(IllegalTransition):
                        phase_transition(phase, event)

    def test_new_input_needs_reset_first(self):
        # the specific mistake the automaton exists to catch
        with pytest.raises(IllegalTransition):
            phase_transition(VoterPhase.VFP_SUCCESS, VoterEvent.INPUT_ARRIVED)

    def test_phase_codes_are_a_bijection(self):
        assert set(PHASE_CODES) == set(VoterPhase)
        assert sorted(PHASE_CODES.values()) == [0, 1, 2, 3, 4]


class TestDescriptor:
    def test_tmr_descriptor_valid(self):
        desc = FarmDescriptor()
        desc.add(1, 1)
        desc.add(2, 2)
        desc.add(3, 3)
        validate_descriptor(desc)
        assert desc.size == 3
        assert desc.idents() == [1, 2, 3]

    def test_empty_farm(self):
        with pytest.raises(EmptyFarm):
            validate_descriptor(FarmDescriptor())

    def test_duplicate_ident(self):
        desc = FarmDescriptor()
        desc.add(1, 1)
        desc.add(2, 1)
        with pytest.raises(DuplicateIdent):
            validate_descriptor(desc)

    def test_gap_in_idents(self):
        desc = FarmDescriptor()
        desc.add(1, 1)
        desc.add(2, 3)
        with pytest.raises(NonContiguousIdents):
            validate_descriptor(desc)

    def test_idents_need_not_arrive_in_order(self):
        desc = FarmDescriptor()
        desc.add(5, 2)
        desc.add(6, 1)
        validate_descriptor(desc)

    def test_copy_is_independent(self):
        desc = FarmDescriptor()
        desc.add(1, 1)
        dup = desc.copy()
        dup.add(2, 2)
        assert desc.size == 1 and dup.size == 2
        assert desc == desc.copy()
        assert desc != dup


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
