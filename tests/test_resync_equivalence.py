"""The one-pass segmented log and the replica's data path against the
parent's, answer for answer.

Three levels, all against ``resync_reference`` (the parent's code, kept
standalone):

* **the op identity** — a ``DictOp`` or ``NatOp`` computes its wire size
  and chain identity once, when it is built; over generated values the
  digest folded from that identity must be the very string the parent's
  ``chain_digest`` makes from the op's repr and the parent's size model;
* **the log** — one hypothesis schedule of ``append`` / ``prune_to`` /
  ``force_prune`` / ``adopt`` / ``digest_at`` / ``entries_after`` is driven
  through ``repro.data.resync.SegmentedLog`` and through the reference;
  after every step the return values, ``head_seq``, ``head_digest``, the
  continuation point, ``buffered_bytes()`` and ``segment_count()`` must be
  equal — digests as the very same strings, since they go on the wire;
* **the replica** — a ring with a ``SharedDict`` and a ``NatTable`` per
  node, write bursts to both, a crash, a rejoin and a budget small enough
  to force-prune runs once on the production data path (one type test per
  delivery, the op's own size and identity, the one-pass log and prune
  rule) and once on the parent's (``isinstance`` routing, every op priced
  again at every replica, the reference log and prune rule); every
  ``resync.*`` / ``state.*`` probe and every ``prune_to`` call must match,
  in order.  Three seeded mutants of the production path must each be
  caught there.
"""

from __future__ import annotations

import inspect
import textwrap
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.nat import NatOp, NatTable
from repro.cluster.harness import RaincoreCluster
from repro.core.config import RaincoreConfig
from repro.data import SharedDict, replica, resync, shared_dict
from repro.data.resync import SegmentedLog, chain_digest
from repro.data.shared_dict import DictOp

from . import resync_reference as reference

pytestmark = pytest.mark.integration


# ----------------------------------------------------------------------
# the op identity
# ----------------------------------------------------------------------
prevs = st.text("0123456789abcdef", min_size=16, max_size=16)
VALUES = st.recursive(
    st.one_of(st.text(max_size=6), st.binary(max_size=6), st.integers(), st.floats(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(prevs, st.integers(1, 10**6), st.sampled_from(["set", "del"]), st.text(max_size=8), VALUES)
def test_dict_op_identity_digests_like_the_parent(prev, seq, kind, key, value):
    op, parent = DictOp(kind, key, value), reference.DictOp(kind, key, value)
    size = reference.wire_size(parent)
    assert (op.size, op.wire_size()) == (size, size)
    assert chain_digest(prev, seq, op.identity) == reference.chain_digest(prev, seq, parent, size)


@settings(max_examples=200, deadline=None)
@given(
    prevs, st.integers(1, 10**6), st.sampled_from(["alloc", "release"]),
    st.integers(), st.text(max_size=21), st.text(max_size=4),
)
def test_nat_op_identity_digests_like_the_parent(prev, seq, kind, flow_id, client, requester):
    op = NatOp(kind, flow_id, client, requester)
    parent = reference.NatOp(kind, flow_id, client, requester)
    size = reference.wire_size(parent)
    assert (op.size, op.wire_size()) == (size, size)
    assert chain_digest(prev, seq, op.identity) == reference.chain_digest(prev, seq, parent, size)


# ----------------------------------------------------------------------
# the log
# ----------------------------------------------------------------------
def observe(log) -> tuple:
    return (
        log.head_seq,
        log.head_digest,
        log.cont.upto_seq,
        log.cont.digest,
        log.buffered_bytes(),
        log.segment_count(),
    )


def plain(result):
    """Entries compare by content — the two logs use different entry (and,
    for writes, op) types — with the payload as the string the chain hashed."""
    if isinstance(result, list):
        return [plain(r) for r in result]
    if hasattr(result, "digest"):
        return (result.seq, repr(result.payload), result.size, result.digest)
    if isinstance(result, tuple):
        return tuple(plain(r) for r in result)
    return result


def run_log_schedule(segment_ops: int, steps: list[tuple]) -> None:
    production, parent = SegmentedLog(segment_ops), reference.SegmentedLog(segment_ops)
    assert observe(production) == observe(parent)
    for n, (op, *args) in enumerate(steps):
        if op == "write":
            # The same write as each side's own op type: equal digests mean
            # DictOp's hand-written repr is the generated one, char for char.
            *fields, size = args
            got = production.append(DictOp(*fields), size)
            want = parent.append(reference.DictOp(*fields), size)
        elif op == "adopt":
            # Relative to the head, so the next segment starts mid-stride.
            seq = production.head_seq + args[0]
            got = production.adopt(seq, args[1])
            want = parent.adopt(seq, args[1], "state")
        elif op in ("prune_to", "force_prune"):
            got = getattr(production, op)(args[0])
            want = getattr(parent, op)(args[0], "state")
        else:
            got = getattr(production, op)(*args)
            want = getattr(parent, op)(*args)
        assert plain(got) == plain(want), f"step {n}: {op}{tuple(args)} answers differ"
        assert observe(production) == observe(parent), f"after step {n}: {op}{tuple(args)}"


seqs = st.integers(0, 80)
values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.lists(st.integers(), max_size=3), st.floats(allow_nan=False),
)
appended = st.tuples(
    st.just("append"), st.one_of(st.text(max_size=8), st.integers()), st.integers(0, 60)
)
LOG_STEPS = st.lists(
    st.one_of(
        appended,
        appended,  # twice: a log that mostly grows reaches the deeper states
        st.tuples(st.just("write"), st.sampled_from(["set", "del"]), st.text(max_size=6), values, st.integers(0, 60)),
        st.tuples(st.just("prune_to"), seqs),
        st.tuples(st.just("force_prune"), st.integers(0, 300)),
        st.tuples(st.just("adopt"), st.integers(0, 9), st.text("0123456789abcdef", min_size=16, max_size=16)),
        st.tuples(st.just("digest_at"), seqs),
        st.tuples(st.just("entries_after"), seqs),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 4, 32]), LOG_STEPS)
def test_any_log_schedule_matches_reference(segment_ops, steps):
    run_log_schedule(segment_ops, [tuple(s) for s in steps])


def appends(n, size=10):
    return [("append", f"op{i}", size) for i in range(n)]


LOG_SCENARIOS = {
    "force_prune seals and burns the open segment, then the log grows again": (
        4, appends(6) + [("force_prune", 0)] + appends(5) + [("digest_at", 7), ("entries_after", 6)],
    ),
    "force_prune stops inside the sealed segments": (
        4, appends(10) + [("force_prune", 45)] + appends(3) + [("prune_to", 12)],
    ),
    "adopt mid-segment realigns the boundaries": (
        4, appends(6) + [("adopt", 3, "feedfeedfeedfeed")] + appends(9)
        + [("prune_to", 13), ("digest_at", 9), ("digest_at", 13), ("entries_after", 0)],
    ),
    "adopt over an empty log, then a prune to the head": (
        1, [("adopt", 5, "beefbeefbeefbeef")] + appends(3) + [("prune_to", 8), ("digest_at", 8)],
    ),
    "prune_to never takes the open segment": (
        32, appends(40) + [("prune_to", 40), ("entries_after", 32), ("force_prune", 10)] + appends(2),
    ),
    "replicated writes chain like the generated repr": (
        4, [("write", "set", f"k{i}", v, 26) for i, v in enumerate([1, "two", None, [3], 4.5, True])]
        + [("write", "del", "k0", None, 18), ("prune_to", 4), ("entries_after", 4)],
    ),
}


@pytest.mark.parametrize("name", sorted(LOG_SCENARIOS))
def test_named_log_scenario_matches_reference(name):
    run_log_schedule(*LOG_SCENARIOS[name])


# ----------------------------------------------------------------------
# the replica
# ----------------------------------------------------------------------
class ReferenceLog(reference.SegmentedLog):
    """The parent's log behind the call signatures ``ReplicaBase`` uses now."""

    def adopt(self, upto_seq, digest):
        super().adopt(upto_seq, digest, "")

    def force_prune(self, budget, state_dig=""):
        return super().force_prune(budget, state_dig)


def spying(log_cls: type, calls: list) -> type:
    """``log_cls`` recording every cooperative prune it is asked for."""

    class SpyLog(log_cls):
        def prune_to(self, floor_seq, state_dig=""):
            result = super().prune_to(floor_seq, state_dig)
            calls.append((floor_seq, result, self.cont.upto_seq, self.cont.digest))
            return result

    return SpyLog


#: The parent's data path: routing, pricing, log and prune rule.
PARENT_PATH = {
    "on_deliver": reference.reference_on_deliver,
    "_apply_and_log": reference.reference_apply_and_log,
    "_maybe_prune": reference.reference_maybe_prune,
}


def write(dicts, nats, node: str, n: int) -> None:
    """Write number ``n``: a dictionary set, and every other time a NAT
    allocation; every sixth write releases a flow allocated earlier."""
    dicts[node].set(f"k{n % 12}", n)
    if n % 2 == 0:
        nats[node].allocate(n, f"10.0.{n % 7}.{n % 250}:{4000 + n}")
    elif n % 6 == 5:
        nats[node].release(n - 5)


def run_ring(
    production: bool, size: int, seed: int, segment_ops: int, budget: int, bursts,
    mutation: dict | None = None,
) -> dict:
    calls: list = []
    log_cls = spying(SegmentedLog if production else ReferenceLog, calls)
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(replica, "SegmentedLog", log_cls))
        patches = {} if production else {(replica.ReplicaBase, k): v for k, v in PARENT_PATH.items()}
        patches.update(mutation or {})
        for (owner, name), value in patches.items():
            stack.enter_context(mock.patch.object(owner, name, value))
        ids = [f"n{i}" for i in range(size)]
        config = RaincoreConfig.tuned(
            ring_size=size, resync_segment_ops=segment_ops, resync_window_bytes=budget
        )
        c = RaincoreCluster(ids, seed=seed, config=config)
        events: list = []
        c.enable_probes().subscribe(events.extend)
        dicts = {n: SharedDict(c.node(n)) for n in ids}
        nats = {n: NatTable(c.node(n)) for n in ids}
        c.start_all()
        victim = ids[-1]
        third = max(1, len(bursts) // 3)
        written = 0
        for round_no, (writer, count) in enumerate(bursts):
            if round_no == third:
                c.faults.crash_node(victim)
                c.run(1.0)
            if round_no == 2 * third:
                c.faults.recover_node(victim)
                c.run(3.0)
            node = ids[writer % size]
            if not c.node(node).is_member:
                node = ids[0]
            for _ in range(count):
                write(dicts, nats, node, written)
                written += 1
            c.run(0.4)
        c.run(6.0)
        replicas = {(n, r.SERVICE): r for n in ids for r in (dicts[n], nats[n])}
        return {
            "probes": [
                (e.node, e.kind, e.args) for e in events
                if e.kind.startswith(("resync.", "state."))
            ],
            "prune_calls": calls,
            "state": {k: (r.snapshot(), r.applied_seq, r.synced) for k, r in replicas.items()},
            "heads": {k: (r._log.head_seq, r._log.head_digest) for k, r in replicas.items()},
            "conts": {k: (r.continuation.upto_seq, r.continuation.digest) for k, r in replicas.items()},
        }


def run_both_rings(*args) -> dict:
    production, parent = run_ring(True, *args), run_ring(False, *args)
    for key in production:
        assert production[key] == parent[key], key
    return production


BURSTS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 40)), min_size=3, max_size=9)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(3, 5), st.integers(0, 1000), st.sampled_from([1, 4, 32]),
    st.sampled_from([200, 1024, 65536]), BURSTS,
)
def test_any_ring_schedule_matches_reference(size, seed, segment_ops, budget, bursts):
    run_both_rings(size, seed, segment_ops, budget, bursts)


#: The named ring: a crash, a rejoin and a budget that forces prunes.
NAMED_RING = (4, 7, 4, 200, [(0, 30), (1, 24), (2, 40), (0, 16), (1, 30), (2, 8), (0, 20), (1, 12), (0, 6)])


def test_ring_with_crash_rejoin_and_forced_prunes_matches_reference():
    """The named scenario is not vacuous: both prune paths, a snapshot
    adoption on the rejoiner and cooperative prunes that move really ran,
    for both services."""
    outcome = run_both_rings(*NAMED_RING)
    for service in (SharedDict.SERVICE, NatTable.SERVICE):
        probes = [(node, kind, args) for node, kind, args in outcome["probes"] if service in args[0]]
        prunes = [args for _node, kind, args in probes if kind == "resync.prune"]
        assert any(args[4] for args in prunes), f"{service}: no forced prune"
        assert any(not args[4] for args in prunes), f"{service}: no cooperative prune"
        assert any(kind == "state.install" and node == "n3" for node, kind, _ in probes), service
        assert any(kind == "resync.buffer" for _node, kind, _ in probes), service
        states = [s for (_node, svc), s in outcome["state"].items() if svc == service]
        assert all(s == states[0] for s in states) and states[0][2] and states[0][0], service
    assert any(result[0] for _floor, result, *_ in outcome["prune_calls"])


# ----------------------------------------------------------------------
# seeded mutants of the production path: each one must be caught
# ----------------------------------------------------------------------
def mutant(owner: type, name: str, old: str, new: str, module) -> tuple:
    """``owner.name`` with one source fragment changed, as a patch."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, old
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return {(owner, name): namespace[name]}


MUTANTS = {
    # The op's identity leaves its size out: every logged write chains apart.
    "identity_without_size": (
        DictOp, "__post_init__", "chain_identity(self, size)", 'chain_identity(self, "")', shared_dict,
    ),
    # A segment seals one op late: acks, prunes and the window all shift.
    "seal_one_op_late": (
        SegmentedLog, "append", "if len(entries) < self.segment_ops:",
        "if len(entries) <= self.segment_ops:", resync,
    ),
    # The op check lets a resync message through as an op.
    "op_check_admits_resync": (
        replica.ReplicaBase, "on_deliver", "if kind is self.OP:",
        "if kind is self.OP or kind is ResyncAck:", replica,
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_seeded_mutant_is_killed(name):
    parent = run_ring(False, *NAMED_RING)
    try:
        mutated = run_ring(True, *NAMED_RING, mutation=mutant(*MUTANTS[name]))
    except Exception:  # noqa: BLE001 - a crash is a kill too
        return
    assert mutated != parent, name
