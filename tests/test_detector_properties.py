"""Tests for the property checkers on hand-built traces.

The oracle tests exercise the checkers on known-good behaviour; here we also
feed them deliberately broken traces and make sure every violation type is
caught.
"""

from __future__ import annotations

import statistics

import pytest

from repro.detectors import CLASSES, CheckResult, check_hb_detection, check_topo_detection
from repro.identity import IdentityMultiset, ProcessId
from repro.membership import Membership, unique_identities
from repro.sim import CrashSchedule, RunTrace
from repro.sim.failures import FailurePattern

H_LEADER, H_MULTIPLICITY = CLASSES["HOmega"].keys
H_QUORA, H_LABELS = CLASSES["HSigma"].keys
(H_TRUSTED,) = CLASSES["DiamondHP"].keys
(SIGMA_TRUSTED,) = CLASSES["Sigma"].keys
(DIAMOND_P_TRUSTED,) = CLASSES["DiamondP"].keys
(OMEGA_LEADER,) = CLASSES["Omega"].keys
(SCRIPT_E_ALIVE,) = CLASSES["ScriptE"].keys
(AP_ANAP,) = CLASSES["AP"].keys
(A_OMEGA_LEADER,) = CLASSES["AOmega"].keys
(A_SIGMA_PAIRS,) = CLASSES["ASigma"].keys


def p(index: int) -> ProcessId:
    return ProcessId(index)


def bag(*items) -> IdentityMultiset:
    return IdentityMultiset(items)


def make_pattern(membership, crashes=None):
    return FailurePattern(membership, CrashSchedule.at_times(crashes or {}))


class TestCheckResult:
    def test_truthiness(self):
        assert CheckResult(ok=True)
        assert not CheckResult(ok=False, violations=("boom",))

    def test_from_violations(self):
        good = CheckResult.from_violations([])
        bad = CheckResult.from_violations(["x"])
        assert good.ok and not bad.ok


class TestHOmegaChecker:
    def setup_method(self):
        self.membership = Membership.of(["A", "A", "B"])
        self.pattern = make_pattern(self.membership, {p(0): 5.0})
        # Correct: p1 (A), p2 (B).  Expected leader A with multiplicity 1.

    def _trace(self, leaders, multiplicities):
        trace = RunTrace()
        for process, leader in leaders.items():
            trace.record(process, H_LEADER, leader, 10.0)
        for process, multiplicity in multiplicities.items():
            trace.record(process, H_MULTIPLICITY, multiplicity, 10.0)
        return trace

    def test_accepts_correct_election(self):
        trace = self._trace({p(1): "A", p(2): "A"}, {p(1): 1, p(2): 1})
        assert CLASSES["HOmega"].judge(trace, self.pattern).ok

    def test_rejects_disagreement(self):
        trace = self._trace({p(1): "A", p(2): "B"}, {p(1): 1, p(2): 1})
        result = CLASSES["HOmega"].judge(trace, self.pattern)
        assert not result.ok
        assert any("disagree" in violation for violation in result.violations)

    def test_rejects_faulty_leader(self):
        # Elect an identifier carried only by a crashed process.
        membership = Membership.of(["A", "B", "C"])
        pattern = make_pattern(membership, {p(0): 5.0})
        trace = RunTrace()
        for process in (p(1), p(2)):
            trace.record(process, H_LEADER, "A", 10.0)
            trace.record(process, H_MULTIPLICITY, 1, 10.0)
        result = CLASSES["HOmega"].judge(trace, pattern)
        assert not result.ok

    def test_rejects_wrong_multiplicity(self):
        trace = self._trace({p(1): "A", p(2): "A"}, {p(1): 2, p(2): 1})
        result = CLASSES["HOmega"].judge(trace, self.pattern)
        assert not result.ok
        assert any("multiplicity" in violation for violation in result.violations)

    def test_rejects_missing_records(self):
        trace = self._trace({p(1): "A"}, {p(1): 1})
        result = CLASSES["HOmega"].judge(trace, self.pattern)
        assert not result.ok

    def test_stabilization_time_reported(self):
        trace = RunTrace()
        for process in (p(1), p(2)):
            trace.record(process, H_LEADER, "B", 2.0)
            trace.record(process, H_LEADER, "A", 7.0)
            trace.record(process, H_MULTIPLICITY, 1, 2.0)
        result = CLASSES["HOmega"].judge(trace, self.pattern)
        assert result.ok
        assert result.stabilization_time == 7.0


class TestDiamondCheckers:
    def test_diamond_hp_accepts_and_rejects(self, paper_example_membership):
        pattern = make_pattern(paper_example_membership, {p(0): 1.0})
        good = RunTrace()
        bad = RunTrace()
        for process in (p(1), p(2)):
            good.record(process, H_TRUSTED, bag("A", "B"), 5.0)
            bad.record(process, H_TRUSTED, bag("A", "A", "B"), 5.0)
        assert CLASSES["DiamondHP"].judge(good, pattern).ok
        assert not CLASSES["DiamondHP"].judge(bad, pattern).ok

    def test_diamond_hp_rejects_non_multiset(self, paper_example_membership):
        pattern = make_pattern(paper_example_membership, {p(0): 1.0})
        trace = RunTrace()
        for process in (p(1), p(2)):
            trace.record(process, H_TRUSTED, ("A", "B"), 5.0)
        assert not CLASSES["DiamondHP"].judge(trace, pattern).ok

    def test_diamond_p(self):
        membership = unique_identities(3)
        pattern = make_pattern(membership, {p(2): 1.0})
        good = RunTrace()
        bad = RunTrace()
        for process in (p(0), p(1)):
            good.record(process, DIAMOND_P_TRUSTED, frozenset({"id0", "id1"}), 5.0)
            bad.record(process, DIAMOND_P_TRUSTED, frozenset({"id0"}), 5.0)
        assert CLASSES["DiamondP"].judge(good, pattern).ok
        assert not CLASSES["DiamondP"].judge(bad, pattern).ok


class TestOmegaCheckers:
    def test_omega_accepts_common_correct_leader(self):
        membership = unique_identities(3)
        pattern = make_pattern(membership, {p(0): 1.0})
        trace = RunTrace()
        for process in (p(1), p(2)):
            trace.record(process, OMEGA_LEADER, "id1", 5.0)
        assert CLASSES["Omega"].judge(trace, pattern).ok

    def test_omega_rejects_crashed_leader(self):
        membership = unique_identities(3)
        pattern = make_pattern(membership, {p(0): 1.0})
        trace = RunTrace()
        for process in (p(1), p(2)):
            trace.record(process, OMEGA_LEADER, "id0", 5.0)
        assert not CLASSES["Omega"].judge(trace, pattern).ok

    def test_aomega_requires_exactly_one_leader(self):
        membership = unique_identities(3)
        pattern = make_pattern(membership)
        trace = RunTrace()
        trace.record(p(0), A_OMEGA_LEADER, True, 5.0)
        trace.record(p(1), A_OMEGA_LEADER, False, 5.0)
        trace.record(p(2), A_OMEGA_LEADER, False, 5.0)
        assert CLASSES["AOmega"].judge(trace, pattern).ok
        trace.record(p(1), A_OMEGA_LEADER, True, 6.0)
        assert not CLASSES["AOmega"].judge(trace, pattern).ok


class TestSigmaChecker:
    def test_accepts_intersecting_quorums(self):
        membership = unique_identities(3)
        pattern = make_pattern(membership, {p(2): 1.0})
        trace = RunTrace()
        trace.record(p(0), SIGMA_TRUSTED, frozenset({"id0", "id1"}), 1.0)
        trace.record(p(1), SIGMA_TRUSTED, frozenset({"id1", "id0"}), 1.0)
        trace.record(p(0), SIGMA_TRUSTED, frozenset({"id0", "id1"}), 9.0)
        trace.record(p(1), SIGMA_TRUSTED, frozenset({"id0", "id1"}), 9.0)
        assert CLASSES["Sigma"].judge(trace, pattern).ok

    def test_rejects_disjoint_quorums_even_across_times(self):
        membership = unique_identities(4)
        pattern = make_pattern(membership)
        trace = RunTrace()
        trace.record(p(0), SIGMA_TRUSTED, frozenset({"id0", "id1"}), 1.0)
        for process in membership.processes:
            trace.record(process, SIGMA_TRUSTED, frozenset({"id2", "id3"}), 9.0)
        result = CLASSES["Sigma"].judge(trace, pattern)
        assert not result.ok
        assert any("do not intersect" in violation for violation in result.violations)

    def test_rejects_final_quorum_with_faulty_member(self):
        membership = unique_identities(3)
        pattern = make_pattern(membership, {p(2): 1.0})
        trace = RunTrace()
        for process in (p(0), p(1)):
            trace.record(process, SIGMA_TRUSTED, frozenset({"id0", "id2"}), 5.0)
        assert not CLASSES["Sigma"].judge(trace, pattern).ok


class TestScriptEChecker:
    def test_accepts_correct_prefix(self):
        membership = unique_identities(4)
        pattern = make_pattern(membership, {p(3): 1.0})
        trace = RunTrace()
        for process in (p(0), p(1), p(2)):
            trace.record(process, SCRIPT_E_ALIVE, ("id2", "id0", "id1", "id3"), 5.0)
        assert CLASSES["ScriptE"].judge(trace, pattern).ok

    def test_rejects_correct_process_outside_prefix(self):
        membership = unique_identities(4)
        pattern = make_pattern(membership, {p(3): 1.0})
        trace = RunTrace()
        for process in (p(0), p(1), p(2)):
            trace.record(process, SCRIPT_E_ALIVE, ("id0", "id3", "id1", "id2"), 5.0)
        assert not CLASSES["ScriptE"].judge(trace, pattern).ok


class TestAPChecker:
    def test_safety_violation_detected(self):
        membership = unique_identities(3)
        pattern = make_pattern(membership, {p(0): 100.0})
        trace = RunTrace()
        trace.record(p(1), AP_ANAP, 2, 5.0)  # 3 processes alive at t=5
        trace.record(p(1), AP_ANAP, 2, 200.0)
        trace.record(p(2), AP_ANAP, 2, 200.0)
        result = CLASSES["AP"].judge(trace, pattern)
        assert not result.ok
        assert any("safety" in violation for violation in result.violations)

    def test_liveness_violation_detected(self):
        membership = unique_identities(3)
        pattern = make_pattern(membership, {p(0): 1.0})
        trace = RunTrace()
        for process in (p(1), p(2)):
            trace.record(process, AP_ANAP, 3, 50.0)
        result = CLASSES["AP"].judge(trace, pattern)
        assert not result.ok

    def test_good_trace_accepted(self):
        membership = unique_identities(3)
        pattern = make_pattern(membership, {p(0): 10.0})
        trace = RunTrace()
        for process in (p(1), p(2)):
            trace.record(process, AP_ANAP, 3, 5.0)
            trace.record(process, AP_ANAP, 2, 20.0)
        assert CLASSES["AP"].judge(trace, pattern).ok


class TestASigmaChecker:
    def test_good_trace(self):
        membership = unique_identities(4)
        pattern = make_pattern(membership, {p(3): 1.0})
        trace = RunTrace()
        for process in membership.processes:
            trace.record(process, A_SIGMA_PAIRS, frozenset({("all", 4)}), 1.0)
        for process in (p(0), p(1), p(2)):
            trace.record(
                process, A_SIGMA_PAIRS, frozenset({("all", 4), ("corr", 3)}), 10.0
            )
        assert CLASSES["ASigma"].judge(trace, pattern).ok

    def test_duplicate_label_rejected(self):
        membership = unique_identities(2)
        pattern = make_pattern(membership)
        trace = RunTrace()
        for process in membership.processes:
            trace.record(
                process, A_SIGMA_PAIRS, frozenset({("x", 1), ("x", 2)}), 1.0
            )
        result = CLASSES["ASigma"].judge(trace, pattern)
        assert not result.ok
        assert any("same label" in violation for violation in result.violations)

    def test_disjoint_quorums_rejected(self):
        membership = unique_identities(4)
        pattern = make_pattern(membership)
        trace = RunTrace()
        # Label "a" held by p0, p1; label "b" held by p2, p3; sizes 2 and 2:
        # the quorums {p0, p1} and {p2, p3} are disjoint.
        trace.record(p(0), A_SIGMA_PAIRS, frozenset({("a", 2)}), 1.0)
        trace.record(p(1), A_SIGMA_PAIRS, frozenset({("a", 2)}), 1.0)
        trace.record(p(2), A_SIGMA_PAIRS, frozenset({("b", 2)}), 1.0)
        trace.record(p(3), A_SIGMA_PAIRS, frozenset({("b", 2)}), 1.0)
        result = CLASSES["ASigma"].judge(trace, pattern)
        assert not result.ok
        assert any("disjoint" in violation for violation in result.violations)

    def test_monotonicity_violation(self):
        membership = unique_identities(2)
        pattern = make_pattern(membership)
        trace = RunTrace()
        trace.record(p(0), A_SIGMA_PAIRS, frozenset({("x", 2)}), 1.0)
        trace.record(p(0), A_SIGMA_PAIRS, frozenset({("x", 3)}), 2.0)
        trace.record(p(0), A_SIGMA_PAIRS, frozenset({("x", 2)}), 3.0)
        trace.record(p(1), A_SIGMA_PAIRS, frozenset({("x", 2)}), 3.0)
        result = CLASSES["ASigma"].judge(trace, pattern)
        assert not result.ok
        assert any("monotonicity" in violation for violation in result.violations)


class TestHSigmaChecker:
    def setup_method(self):
        # The paper's worked example: Π = {1, 2, 3}, ids A, A, B.
        self.membership = Membership.of(["A", "A", "B"])
        self.pattern = make_pattern(self.membership, {p(1): 5.0})

    def _record_labels(self, trace, process, labels, time):
        trace.record(process, H_LABELS, frozenset(labels), time)

    def _record_quora(self, trace, process, pairs, time):
        trace.record(process, H_QUORA, frozenset(pairs), time)

    def test_paper_example_satisfies_properties(self):
        trace = RunTrace()
        # Labels as in Section 3.2: S(la) = {1,2}, S(lb) = {2,3}, S(lc) = {1,3}
        # (process indices here are 0-based: paper's process 1 is p(0), etc.)
        self._record_labels(trace, p(0), {"la", "lc"}, 1.0)
        self._record_labels(trace, p(1), {"la", "lb"}, 1.0)
        self._record_labels(trace, p(2), {"lb", "lc"}, 1.0)
        # h_quora of process 1 (p0) and process 3 (p2) from the example.
        self._record_quora(trace, p(0), {("lb", bag("B"))}, 2.0)
        self._record_quora(trace, p(2), {("la", bag("A", "B")), ("lc", bag("A", "B"))}, 2.0)
        result = CLASSES["HSigma"].judge(trace, self.pattern)
        assert result.ok, result.violations

    def test_duplicate_label_in_quora_rejected(self):
        trace = RunTrace()
        self._record_labels(trace, p(0), {"x"}, 1.0)
        self._record_labels(trace, p(2), {"x"}, 1.0)
        self._record_quora(trace, p(0), {("x", bag("A")), ("x", bag("B"))}, 2.0)
        self._record_quora(trace, p(2), {("x", bag("B"))}, 2.0)
        result = CLASSES["HSigma"].judge(trace, self.pattern)
        assert not result.ok
        assert any("same label" in violation for violation in result.violations)

    def test_shrinking_labels_rejected(self):
        trace = RunTrace()
        self._record_labels(trace, p(0), {"x", "y"}, 1.0)
        self._record_labels(trace, p(0), {"x"}, 2.0)
        self._record_labels(trace, p(2), {"x"}, 2.0)
        self._record_quora(trace, p(0), {("x", bag("A", "B"))}, 2.0)
        self._record_quora(trace, p(2), {("x", bag("A", "B"))}, 2.0)
        result = CLASSES["HSigma"].judge(trace, self.pattern)
        assert not result.ok
        assert any("removed labels" in violation for violation in result.violations)

    def test_growing_quorum_multiset_rejected(self):
        trace = RunTrace()
        self._record_labels(trace, p(0), {"x"}, 1.0)
        self._record_labels(trace, p(2), {"x"}, 1.0)
        self._record_quora(trace, p(0), {("x", bag("B"))}, 2.0)
        self._record_quora(trace, p(0), {("x", bag("A", "B"))}, 3.0)
        self._record_quora(trace, p(2), {("x", bag("B"))}, 3.0)
        result = CLASSES["HSigma"].judge(trace, self.pattern)
        assert not result.ok
        assert any("grew the quorum" in violation for violation in result.violations)

    def test_liveness_violation_rejected(self):
        trace = RunTrace()
        # The only pair names a multiset never covered by correct holders of x:
        # label "x" is held only by the faulty p(1).
        self._record_labels(trace, p(1), {"x"}, 1.0)
        self._record_quora(trace, p(0), {("x", bag("A"))}, 2.0)
        self._record_quora(trace, p(2), {("x", bag("A"))}, 2.0)
        result = CLASSES["HSigma"].judge(trace, self.pattern)
        assert not result.ok
        assert any("liveness" in violation for violation in result.violations)

    def test_safety_violation_rejected(self):
        # Disjoint quorums: {p0} realises ("x", {A}) and {p2} realises ("y", {B}).
        trace = RunTrace()
        self._record_labels(trace, p(0), {"x"}, 1.0)
        self._record_labels(trace, p(2), {"y"}, 1.0)
        self._record_quora(trace, p(0), {("x", bag("A"))}, 2.0)
        self._record_quora(trace, p(2), {("y", bag("B"))}, 2.0)
        result = CLASSES["HSigma"].judge(trace, self.pattern)
        assert not result.ok
        assert any("disjoint" in violation for violation in result.violations)

    def test_homonyms_can_force_safety_violations(self):
        # Both A-processes hold label "x" with quorum multiset {A}; two
        # disjoint singletons {p0} and {p1} both realise it.
        trace = RunTrace()
        self._record_labels(trace, p(0), {"x"}, 1.0)
        self._record_labels(trace, p(1), {"x"}, 1.0)
        self._record_labels(trace, p(2), {"x"}, 1.0)
        self._record_quora(trace, p(0), {("x", bag("A"))}, 2.0)
        self._record_quora(trace, p(2), {("x", bag("A"))}, 2.0)
        result = CLASSES["HSigma"].judge(trace, self.pattern)
        assert not result.ok
        assert any("disjoint" in violation for violation in result.violations)


# ----------------------------------------------------------------------
# The detection judge: one rule, two kinds of target
# ----------------------------------------------------------------------
_UNIQUE = ["a", "b", "c", "d"]
_HOMONYMS = ["a", "a", "b", "b"]  # p2 and p3 share identity "b"


def _expect(latencies=None, missed=0, false=0):
    return {"latencies": latencies or {}, "missed": missed, "false": false}


def _both(by_index, **rest):
    """The same expectation for both callers (unique ids: identity i ↔ index i)."""
    by_identity = {_UNIQUE[index]: latency for index, latency in by_index.items()}
    return _expect(by_identity, **rest), _expect(by_index, **rest)


# (identities, {crashed index: t_fail}, [(observer, target index, t)], hb, topo):
# each declaration names its target by identity for ``hb_detection`` and by
# index for ``topo_detection``.
_JUDGE_CASES = {
    "missed": (_UNIQUE, {3: 6.0}, [], *_both({}, missed=1)),
    "first_wins_duplicates_count_once": (
        _UNIQUE,
        {3: 6.0},
        [(0, 3, 9.0), (0, 3, 11.0), (1, 3, 8.5), (2, 3, 8.5)],
        *_both({3: 2.5}),
    ),
    "at_t_fail_is_a_detection": (_UNIQUE, {3: 6.0}, [(0, 3, 6.0)], *_both({3: 0.0})),
    "other_target_ignored": (
        _UNIQUE,
        {2: 5.0, 3: 6.0},
        [(0, 2, 7.0)],
        *_both({2: 2.0}, missed=1),
    ),
    "premature_is_a_false_suspicion_not_a_detection": (
        _UNIQUE,
        {3: 6.0},
        [(0, 3, 5.0), (1, 3, 9.0)],
        *_both({3: 3.0}, false=1),
    ),
    "premature_alone_leaves_the_target_missed": (
        _UNIQUE,
        {3: 6.0},
        [(0, 3, 5.0)],
        *_both({}, missed=1, false=1),
    ),
    "live_target_declared": (
        _UNIQUE,
        {3: 6.0},
        [(0, 1, 7.0), (0, 3, 9.0)],
        *_both({3: 3.0}, false=1),
    ),
    "faulty_observer_has_no_say": (
        _UNIQUE,
        {3: 6.0},
        [(3, 0, 2.0), (0, 3, 9.0)],
        *_both({3: 3.0}),
    ),
    # an identity fails only at its last bearer's crash; an index at its own
    "homonym_cover": (
        _HOMONYMS,
        {2: 4.0, 3: 10.0},
        [(0, 2, 7.0), (1, 3, 12.0)],
        _expect({"b": 2.0}, false=1),
        _expect({2: 3.0, 3: 2.0}),
    ),
    "surviving_namesake_keeps_the_identity_alive": (
        _HOMONYMS,
        {2: 4.0},
        [(0, 2, 7.0)],
        _expect(false=1),
        _expect({2: 3.0}),
    ),
}


@pytest.mark.parametrize("caller", ["hb_detection", "topo_detection"])
@pytest.mark.parametrize("case", _JUDGE_CASES)
def test_detection_judge(case, caller):
    identities, crashes, declarations, by_identity, by_index = _JUDGE_CASES[case]
    by_target = caller == "hb_detection"
    check = check_hb_detection if by_target else check_topo_detection
    expected = by_identity if by_target else by_index
    membership = Membership.of(identities)
    trace = RunTrace()
    for index, t_fail in crashes.items():
        trace.record_crash(p(index), t_fail)
    for observer, target, at in declarations:
        trace.record(p(observer), "declared_dead", identities[target] if by_target else target, at)

    result = check(trace, make_pattern(membership, {p(i): t for i, t in crashes.items()}))

    assert result.details["latencies"] == expected["latencies"]
    metrics = result.details["metrics"]
    assert metrics["detected"] == len(expected["latencies"])
    assert metrics["missed"] == expected["missed"]
    assert sum("declared" in violation for violation in result.violations) == expected["false"]
    assert metrics.get("false_suspicions", expected["false"]) == expected["false"]
    assert result.ok == (expected["missed"] == 0 and expected["false"] == 0)
    latencies = expected["latencies"].values()
    assert result.stabilization_time == (statistics.median(latencies) if latencies else None)
