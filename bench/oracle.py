"""Linear-search oracle and the update-consistency checker.

Every response row is compared with the answer of the repo's linear-search
classifier.  Under ``update_churn`` the rule-set changes while frames are in
flight, so a row is correct iff it equals the linear-search answer under
*some* rule-set state that was current between the frame's send and its
receipt: an update takes effect somewhere between its own send and its ack
(the eviction-before-ack contract, docs/PROTOCOL.md "Ordering and
consistency").

The churn updates are exact-match rules over distinct hot flows, so the
rule-set state only matters per flow: a row of hot flow ``k`` has two possible
answers (rule ``k`` absent / present) and every other row has one.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.classifiers import build_classifier
from repro.rules.rule import Rule, RuleSet

#: rule_id of the churn rule over hot flow ``k`` is ``CHURN_RULE_ID_BASE + k``.
CHURN_RULE_ID_BASE = 1_000_000


def linear_answers(rules: RuleSet, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear-search ``(rule_ids, priorities)`` for every row of ``block``.

    Distinct rows are classified once (a zipf trace repeats ~2.7k flows).
    """
    unique, inverse = np.unique(block, axis=0, return_inverse=True)
    ids, priorities = build_classifier("linear", rules).classify_block(unique)
    inverse = inverse.reshape(-1)
    return ids[inverse], priorities[inverse]


def hot_flows(block: np.ndarray, base_priorities: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` most frequent distinct rows of ``block``, hottest first.

    Rows already answered at priority 0 are skipped so that inserting a
    priority-0 rule over a hot flow always changes its answer (a stale
    response is then always detectable).
    """
    unique, first, counts = np.unique(
        block, axis=0, return_index=True, return_counts=True
    )
    order = np.argsort(-counts, kind="stable")
    keep = [i for i in order if base_priorities[first[i]] != 0][:count]
    return unique[keep]


def churn_rule(flow_index: int, flow: np.ndarray) -> Rule:
    """The exact-match priority-0 rule over one hot flow."""
    ranges = tuple((int(v), int(v)) for v in flow)
    return Rule(ranges, priority=0, action="churn",
                rule_id=CHURN_RULE_ID_BASE + flow_index)


class UpdateTimeline:
    """Client-side record of updates: which rule-set states a frame may see.

    ``begin(flow, present, t_send)`` logs an update that will leave the churn
    rule of ``flow`` present or absent; ``ack(flow, t_ack)`` closes it.  An
    update is logged *before* it is sent, because a classify response may
    reflect it before its ack arrives.  Updates are issued one at a time, so
    each flow's events are ordered and only the last can be open; a flow
    whose update failed is ``forget``-ed: its state is unknown from then on.
    """

    def __init__(self, num_flows: int):
        self._sends: list[list[float]] = [[] for _ in range(num_flows)]
        self._acks: list[list[float]] = [[] for _ in range(num_flows)]
        self._present: list[list[bool]] = [[] for _ in range(num_flows)]
        self._unknown: set[int] = set()

    def begin(self, flow: int, present: bool, t_send: float) -> None:
        self._sends[flow].append(t_send)
        self._acks[flow].append(float("inf"))
        self._present[flow].append(present)

    def ack(self, flow: int, t_ack: float) -> None:
        self._acks[flow][-1] = t_ack

    def forget(self, flow: int) -> None:
        self._unknown.add(flow)

    def allowed(self, flow: int, t_send: float, t_recv: float) -> tuple[bool, bool]:
        """``(absent_ok, present_ok)`` for a frame in flight over ``[t_send, t_recv]``.

        The state when the frame was sent is the outcome of the last update
        acknowledged before ``t_send``; every update whose own
        ``[send, ack]`` window overlaps the frame's may or may not have been
        applied when the server classified it.
        """
        if flow in self._unknown:
            return True, True
        present = self._present[flow]
        settled = bisect.bisect_right(self._acks[flow], t_send)
        state = present[settled - 1] if settled else False
        absent_ok, present_ok = not state, state
        overlapping = bisect.bisect_right(self._sends[flow], t_recv)
        for outcome in present[settled:overlapping]:
            if outcome:
                present_ok = True
            else:
                absent_ok = True
        return absent_ok, present_ok


class FrameChecker:
    """Counts wrong rows of classify responses against precomputed answers."""

    def __init__(self, base_ids: np.ndarray, base_priorities: np.ndarray,
                 frame_rows: int):
        self._ids = base_ids
        self._priorities = base_priorities
        self._rows = frame_rows

    def _expected(self, frame: int) -> tuple[np.ndarray, np.ndarray]:
        rows = slice(frame * self._rows, (frame + 1) * self._rows)
        return self._ids[rows], self._priorities[rows]

    def wrong_rows(self, frame: int, rule_ids: np.ndarray, priorities: np.ndarray,
                   t_send: float = 0.0, t_recv: float = 0.0) -> int:
        ids, pris = self._expected(frame)
        if len(rule_ids) != len(ids):
            return len(ids)
        return int(np.count_nonzero((rule_ids != ids) | (priorities != pris)))


class ChurnFrameChecker(FrameChecker):
    """:class:`FrameChecker` that admits the states an :class:`UpdateTimeline` allows."""

    def __init__(self, base_ids: np.ndarray, base_priorities: np.ndarray,
                 frame_rows: int, block: np.ndarray, flows: np.ndarray,
                 present_ids: np.ndarray, present_priorities: np.ndarray,
                 timeline: UpdateTimeline):
        """``present_ids[k]``/``present_priorities[k]``: the linear-search
        answer for hot flow ``k`` with its churn rule in the rule-set."""
        super().__init__(base_ids, base_priorities, frame_rows)
        self._timeline = timeline
        self._present_ids = present_ids
        self._present_priorities = present_priorities
        # Per frame: [(flow index, row offsets inside the frame), ...].
        flow_of = {flow.tobytes(): k for k, flow in enumerate(flows)}
        row_flow = np.array(
            [flow_of.get(row.tobytes(), -1) for row in np.ascontiguousarray(block)]
        )
        self._frame_flows: list[list[tuple[int, np.ndarray]]] = []
        for start in range(0, len(block), frame_rows):
            chunk = row_flow[start : start + frame_rows]
            self._frame_flows.append(
                [(int(k), np.flatnonzero(chunk == k)) for k in np.unique(chunk) if k >= 0]
            )

    def wrong_rows(self, frame: int, rule_ids: np.ndarray, priorities: np.ndarray,
                   t_send: float = 0.0, t_recv: float = 0.0) -> int:
        ids, pris = self._expected(frame)
        if len(rule_ids) != len(ids):
            return len(ids)
        absent_ok = np.ones(len(ids), dtype=bool)
        present_ok = np.zeros(len(ids), dtype=bool)
        with_ids = ids.copy()
        with_pris = pris.copy()
        for flow, rows in self._frame_flows[frame]:
            absent_ok[rows], present_ok[rows] = self._timeline.allowed(
                flow, t_send, t_recv
            )
            with_ids[rows] = self._present_ids[flow]
            with_pris[rows] = self._present_priorities[flow]
        right = (absent_ok & (rule_ids == ids) & (priorities == pris)) | (
            present_ok & (rule_ids == with_ids) & (priorities == with_pris)
        )
        return int(np.count_nonzero(~right))
