"""Unit tests for protocol configuration and the node state machine map."""

import pytest

from repro.core.config import RaincoreConfig
from repro.core.states import VALID_TRANSITIONS, NodeState
from repro.transport.reliable import TransportConfig


def test_defaults_are_valid():
    cfg = RaincoreConfig()
    assert cfg.hop_interval > 0
    assert cfg.transport is not None


def test_validation_rejects_nonpositive_timers():
    for field in (
        "hop_interval",
        "hungry_timeout",
        "starving_backoff",
        "join_retry",
        "bodyodor_interval",
    ):
        for value in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                RaincoreConfig(**{field: value})


def test_validation_rejects_zero_batch():
    with pytest.raises(ValueError):
        RaincoreConfig(max_batch_per_visit=0)


def test_tuned_hungry_timeout_exceeds_traversal():
    for n in (1, 2, 4, 16):
        cfg = RaincoreConfig.tuned(ring_size=n)
        traversal = n * cfg.hop_interval
        assert cfg.hungry_timeout > traversal
        assert cfg.hungry_timeout > cfg.transport.failure_detection_bound()


def test_tuned_scales_with_ring_size():
    small = RaincoreConfig.tuned(ring_size=2)
    large = RaincoreConfig.tuned(ring_size=32)
    assert large.hungry_timeout > small.hungry_timeout


def test_tuned_accepts_overrides():
    cfg = RaincoreConfig.tuned(ring_size=4, bodyodor_interval=0.25)
    assert cfg.bodyodor_interval == 0.25


def test_tuned_custom_transport():
    tcfg = TransportConfig(retx_timeout=0.01)
    cfg = RaincoreConfig.tuned(ring_size=4, transport=tcfg)
    assert cfg.transport.retx_timeout == 0.01


def test_tuned_rejects_empty_ring():
    with pytest.raises(ValueError):
        RaincoreConfig.tuned(ring_size=0)


def test_config_is_frozen():
    cfg = RaincoreConfig()
    with pytest.raises(AttributeError):
        cfg.hop_interval = 1.0  # type: ignore[misc]


# ----------------------------------------------------------------------
# state machine map
# ----------------------------------------------------------------------
def test_every_state_has_transitions():
    assert set(VALID_TRANSITIONS) == set(NodeState)


def test_paper_lifecycle_is_legal():
    """HUNGRY -> EATING -> HUNGRY -> STARVING -> EATING (911 win)."""
    assert NodeState.EATING in VALID_TRANSITIONS[NodeState.HUNGRY]
    assert NodeState.HUNGRY in VALID_TRANSITIONS[NodeState.EATING]
    assert NodeState.STARVING in VALID_TRANSITIONS[NodeState.HUNGRY]
    assert NodeState.EATING in VALID_TRANSITIONS[NodeState.STARVING]


def test_no_resurrection_without_joining():
    assert VALID_TRANSITIONS[NodeState.DOWN] == frozenset({NodeState.JOINING})


def test_eating_cannot_starve_directly():
    """A node holding the token can never be STARVING."""
    assert NodeState.STARVING not in VALID_TRANSITIONS[NodeState.EATING]
