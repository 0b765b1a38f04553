"""Node state machine of the token-ring protocol (paper §2.2–2.3).

    "When a node has a TOKEN, it is in the EATING state, when it does not
    have the TOKEN, it is in the HUNGRY state. ...  If a node remains in the
    HUNGRY state for a certain period of time, it enters the STARVING state."

Two additional states make the full lifecycle explicit in the
implementation: ``JOINING`` (a node that has asked to join but has never
held the token of its target group) and ``DOWN`` (crashed or self-shutdown
after a critical-resource failure).
"""

from __future__ import annotations

import enum

__all__ = ["NodeState", "VALID_TRANSITIONS"]


class NodeState(enum.Enum):
    """Lifecycle states of a Raincore session-service node."""

    JOINING = "joining"  #: sent a join 911, waiting for first token
    HUNGRY = "hungry"  #: in the ring, waiting for the token
    EATING = "eating"  #: holding the token (master lock held)
    STARVING = "starving"  #: HUNGRY timeout expired, running 911 protocol
    DOWN = "down"  #: crashed or shut down

    #: The states this one may move to, derived from
    #: :data:`VALID_TRANSITIONS` below.  ``new in old.successors`` compares
    #: by identity; a dict or set lookup would hash the member through the
    #: Python-level ``Enum.__hash__``, twice per transition on the hop path.
    successors: tuple["NodeState", ...]
    #: The member's value, as a plain attribute: probes emit it, and
    #: ``.value`` is a Python-level descriptor call on every read.
    label: str


#: Legal state transitions; the session layer asserts against this map so a
#: protocol bug that corrupts the lifecycle fails loudly in tests.
VALID_TRANSITIONS: dict[NodeState, frozenset[NodeState]] = {
    # JOINING -> STARVING is the deadlock-escape escalation: a joiner that
    # still holds a token copy and cannot get re-admitted attempts a 911
    # regeneration round (docs/PROTOCOL.md §4.2).
    NodeState.JOINING: frozenset(
        {NodeState.EATING, NodeState.JOINING, NodeState.STARVING, NodeState.DOWN}
    ),
    NodeState.HUNGRY: frozenset(
        {NodeState.EATING, NodeState.STARVING, NodeState.DOWN}
    ),
    NodeState.EATING: frozenset({NodeState.HUNGRY, NodeState.DOWN}),
    NodeState.STARVING: frozenset(
        {NodeState.EATING, NodeState.HUNGRY, NodeState.JOINING, NodeState.DOWN}
    ),
    NodeState.DOWN: frozenset({NodeState.JOINING}),
}

for _state, _allowed in VALID_TRANSITIONS.items():
    _state.successors = tuple(s for s in NodeState if s in _allowed)
    _state.label = _state.value
del _state, _allowed
