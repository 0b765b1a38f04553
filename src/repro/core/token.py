"""The TOKEN and its piggybacked multicast messages (paper §2.2, §2.6).

The TOKEN is simultaneously four things in Raincore:

1. the carrier of the **authoritative group membership** (ring order);
2. the **locomotive of reliable multicast** — application messages are
   packed and attached to it;
3. the **failure-detection probe** — the transport's failure-on-delivery
   while forwarding it is what detects dead neighbours; and
4. the **master lock** — holding it is the mutual-exclusion primitive.

Wire-size modelling
-------------------
For the paper's §4.1 byte arithmetic we model: a fixed token header, 8 bytes
per member id on the membership list, and per attached message a fixed
header plus the payload size.  The ``pending`` / ``audience`` sets are
*implementation bookkeeping* for atomicity tracking (DESIGN.md §6.2) and are
not counted as wire bytes — the real protocol retires messages when the
token returns to the originator and carries no such sets.

Packs
-----
The messages one node couples to the token at one visit share one audience
and move through receipt in lockstep, so the receipt bookkeeping is kept
once per **pack** — the run of same-ordering messages of one visit — not
once per message.  ``Token.messages`` is the list of packs in attach order:
each entry is a :class:`PiggybackedMessage`, the run's first message, which
carries the receipt state and the rest of the run as its immutable
``riders``.  A lone message is a pack without riders.

Hot-path layout
---------------
Forwarding the token is the protocol's per-hop critical path, so what used
to be O(group) or O(messages) per hop is per pack or cached:

* **Local copies are eager and per pack.**  A token carries at most (ring
  size × visits in flight) packs, so :meth:`Token.snapshot` simply copies
  each pack's receipt state; payloads and riders never change after attach
  and are shared.  Nothing aliases a pack's ``pending`` set, so every holder
  mutates its token in place.
* **wire_size and the message count are incremental.**  The sum of message
  wire sizes and the number of messages are maintained on attach and
  retire (retiring *subtracts* what left) instead of recomputed per hop;
  mutate ``messages`` through :meth:`attach_message` /
  :meth:`retire_messages`.
* **Ring lookups are indexed.**  ``has_member``/``next_after`` consult a
  member→index map cached per membership tuple (identity-checked, so plain
  tuple reassignment invalidates it naturally).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.transport.messages import session_message

__all__ = [
    "Ordering",
    "Rider",
    "PiggybackedMessage",
    "Token",
    "TOKEN_HEADER",
    "MSG_HEADER",
    "ANCESTRY_DEPTH",
    "derive_ancestry",
]

#: Modelled fixed header of the token (seq, flags, counts).
TOKEN_HEADER = 24
#: Modelled per-member cost of the membership list on the wire.
MEMBER_ENTRY = 8
#: Modelled per-message header (origin, msg number, flags, length).
MSG_HEADER = 16
#: Ancestor lineage ids retained on the token (see :attr:`Token.ancestry`).
#: Deep enough to cover both merge parents plus a few generations, so a
#: member that slept through several regenerations still recognizes the
#: current token as a continuation of the lineage it knew.
ANCESTRY_DEPTH = 6


class Ordering(enum.Enum):
    """Consistency levels for reliable multicast (paper §2.6).

    ``AGREED`` — all nodes deliver all messages in the same (token) order;
    achieved at no extra cost and delivered on first token sight.
    ``SAFE`` — delivered only after every member has received the message;
    costs one extra token round.
    (Causal ordering is subsumed by agreed ordering in a single-token design,
    so no separate level is needed.)
    """

    AGREED = "agreed"
    SAFE = "safe"

    #: The member's value, as a plain attribute: probes emit it, and
    #: ``.value`` is a Python-level descriptor call on every read.
    label: str


for _ordering in Ordering:
    _ordering.label = _ordering.value
del _ordering


def derive_ancestry(*parents: "Token") -> tuple[str, ...]:
    """Ancestry chain for a token forked or merged from ``parents``.

    Parent gens come first (every node bound to a parent lineage must find
    its binding here), then the parents' own ancestors, deduplicated in
    order and truncated to :data:`ANCESTRY_DEPTH`.
    """
    chain: list[str] = []
    for parent in parents:
        if parent.gen and parent.gen not in chain:
            chain.append(parent.gen)
    for parent in parents:
        for gen in parent.ancestry:
            if gen not in chain:
                chain.append(gen)
    return tuple(chain[:ANCESTRY_DEPTH])


@dataclass(slots=True)
class Rider:
    """One multicast message riding the token.

    Attributes
    ----------
    origin, msg_no:
        Identity of the multicast on the wire: per-origin sequence number.
    payload:
        Opaque application object.
    size:
        Modelled payload size in bytes.
    ordering:
        AGREED or SAFE.
    """

    origin: str
    msg_no: int
    payload: object
    size: int
    ordering: Ordering = Ordering.AGREED

    def wire_size(self) -> int:
        return MSG_HEADER + self.size

    def key(self) -> tuple[str, int]:
        """Stable multicast identity ``(origin, msg_no)``."""
        return (self.origin, self.msg_no)


@dataclass(slots=True)
class PiggybackedMessage(Rider):
    """A pack: the first message of one visit's run plus its receipt state.

    Attributes
    ----------
    audience:
        Membership at attach time — the delivery view.  Atomicity (paper
        §2.6) is "delivered at every member of the audience that survives,
        or none".
    pending:
        Members of the audience that have not yet received (phase 1) or,
        once ``confirmed``, not yet delivered (phase 2, SAFE only) the
        pack.  Pruned when members leave.
    confirmed:
        SAFE only: set when every audience member has received the pack,
        starting the delivery round.
    riders:
        The rest of the run, in attach order; same origin and ordering as
        this message.  Fixed at attach, so token copies share it.
    """

    audience: frozenset[str] = frozenset()
    pending: set[str] = field(default_factory=set)
    confirmed: bool = False
    riders: tuple[Rider, ...] = ()

    def unpack(self) -> tuple[Rider, ...]:
        """Every message of the pack, in attach order."""
        return (self, *self.riders)

    def pack_wire_size(self) -> int:
        """Modelled wire bytes of the whole pack."""
        riders = self.riders
        return (
            MSG_HEADER * (1 + len(riders))
            + self.size
            + sum(r.size for r in riders)
        )


@session_message
@dataclass(slots=True)
class Token:
    """The unique circulating TOKEN of one Raincore group.

    ``seq`` increases by one on every hop; it arbitrates 911 regeneration
    (paper §2.3) and lets receivers discard stale duplicate tokens.
    ``membership`` is the authoritative ring order.  ``tbm`` marks a token
    sent to another sub-group's contact node for merging (paper §2.4).
    """

    seq: int = 0
    membership: tuple[str, ...] = ()
    #: The packs in attach order (see "Packs" in the module docstring).
    messages: list[PiggybackedMessage] = field(default_factory=list)
    tbm: bool = False
    view_id: int = 0  #: bumped on every membership change, for listeners
    #: Lineage id ("<node>.<k>") stamped at bootstrap / 911 regeneration /
    #: merge and carried on the wire as the token's causal trace context.
    #: Deterministic (per-node counters), so safe in exported streams.
    gen: str = ""
    #: Recent ancestor lineage ids, newest first, bounded to
    #: :data:`ANCESTRY_DEPTH`.  A 911 regeneration records the lineage it
    #: forked from; a merge records both parents.  Nodes use this chain to
    #: accept only tokens that *continue* the lineage they last followed —
    #: the defence against two concurrently-live tokens (a regeneration
    #: racing the token it presumed lost) leapfrogging each other's seq
    #: space forever.  A real implementation would carry a fixed-width
    #: digest of this chain; like ``gen``, we model it inside the fixed
    #: :data:`TOKEN_HEADER` allowance.
    ancestry: tuple[str, ...] = ()
    #: Cached sum of message wire sizes and number of messages (maintained
    #: incrementally).  The cache is tagged with the list object and length
    #: it was computed for, so direct ``token.messages`` mutation (tests,
    #: adversarial injection) degrades to a lazy recompute instead of a
    #: stale answer.
    _msgs_wire: int = field(default=0, init=False, repr=False, compare=False)
    _msgs_n: int = field(default=0, init=False, repr=False, compare=False)
    _wire_list: list[PiggybackedMessage] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _wire_n: int = field(default=-1, init=False, repr=False, compare=False)
    #: Member → ring index map, valid only for the tuple it was built from.
    _ring_index: dict[str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _ring_for: tuple[str, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._sync_wire_cache()

    def _sync_wire_cache(self) -> None:
        """Recompute the cached totals if ``messages`` was edited directly."""
        messages = self.messages
        if messages is self._wire_list and len(messages) == self._wire_n:
            return
        self._msgs_wire = sum(p.pack_wire_size() for p in messages)
        self._msgs_n = sum(1 + len(p.riders) for p in messages)
        self._wire_list = messages
        self._wire_n = len(messages)

    @property
    def group_id(self) -> str:
        """Group identity: the lowest node id in the membership (paper §2.4)."""
        if not self.membership:
            raise ValueError("token has empty membership")
        return min(self.membership)

    def wire_size(self) -> int:
        self._sync_wire_cache()
        return (
            TOKEN_HEADER
            + MEMBER_ENTRY * len(self.membership)
            + self._msgs_wire
        )

    def message_count(self) -> int:
        """Messages on the token: every pack's head plus its riders."""
        self._sync_wire_cache()
        return self._msgs_n

    def recompute_wire_size(self) -> int:
        """Ground truth for the incremental cache (tests, debugging)."""
        return (
            TOKEN_HEADER
            + MEMBER_ENTRY * len(self.membership)
            + sum(m.wire_size() for p in self.messages for m in p.unpack())
        )

    # ------------------------------------------------------------------
    # message editing (keeps the wire-size cache honest)
    # ------------------------------------------------------------------
    def attach_message(self, pack: PiggybackedMessage) -> None:
        """Append one pack (the only growth path)."""
        self._sync_wire_cache()
        self.messages.append(pack)
        self._msgs_wire += pack.pack_wire_size()
        self._msgs_n += 1 + len(pack.riders)
        self._wire_n += 1

    def retire_messages(
        self, retired: list[PiggybackedMessage], surviving: list[PiggybackedMessage]
    ) -> None:
        """Swap in the ``surviving`` packs, subtracting what ``retired`` weighed."""
        self._sync_wire_cache()
        for pack in retired:
            self._msgs_wire -= pack.pack_wire_size()
            self._msgs_n -= 1 + len(pack.riders)
        self.messages = self._wire_list = surviving
        self._wire_n = len(surviving)

    # ------------------------------------------------------------------
    # membership editing (ring order preserved)
    # ------------------------------------------------------------------
    def _index(self) -> dict[str, int]:
        ring = self.membership
        index = self._ring_index
        if index is None or self._ring_for is not ring:
            index = self._ring_index = {m: i for i, m in enumerate(ring)}
            self._ring_for = ring
        return index

    def has_member(self, node_id: str) -> bool:
        return node_id in self._index()

    def next_after(self, node_id: str) -> str:
        """Ring successor of ``node_id``."""
        ring = self.membership
        idx = self._index()[node_id]
        return ring[(idx + 1) % len(ring)]

    def remove_member(self, node_id: str) -> None:
        """Remove a (failed) member and prune it from all pending sets."""
        if node_id not in self._index():
            return
        self.membership = tuple(m for m in self.membership if m != node_id)
        self.view_id += 1
        for pack in self.messages:
            pack.pending.discard(node_id)

    def insert_after(self, anchor: str, node_id: str) -> None:
        """Insert a joiner immediately after ``anchor`` in the ring.

        This placement is what makes a broken link "naturally bypassed in
        the new ring" in the paper's ABCD → ACD → ACBD example (§2.3).
        """
        index = self._index()
        if node_id in index:
            return
        if anchor not in index:
            raise ValueError(f"anchor {anchor!r} not in membership")
        ring = list(self.membership)
        ring.insert(index[anchor] + 1, node_id)
        self.membership = tuple(ring)
        self.view_id += 1

    def trace_context(self) -> tuple:
        """Causal trace context read at transmit time (see transport.tx).

        Rides within the modelled :data:`TOKEN_HEADER` bytes — the header
        already accounts for seq/flags/counts, and the lineage id replaces
        slack in that fixed allowance, so wire sizes are unchanged.
        """
        return ("tok", self.gen, self.seq, self.message_count(), self.tbm)

    # ------------------------------------------------------------------
    # copying
    # ------------------------------------------------------------------
    def snapshot(self) -> "Token":
        """Independent local copy of the token (paper §2.3).

        Every pack's receipt state is copied, so neither token observes
        the other's further travel; payloads and riders are immutable by
        convention and shared.
        """
        self._sync_wire_cache()
        messages = [
            PiggybackedMessage(
                p.origin, p.msg_no, p.payload, p.size, p.ordering,
                p.audience, set(p.pending), p.confirmed, p.riders,
            )
            for p in self.messages
        ]
        token = Token.__new__(Token)
        token.seq = self.seq
        token.membership = self.membership
        token.messages = messages
        token.tbm = self.tbm
        token.view_id = self.view_id
        token.gen = self.gen
        token.ancestry = self.ancestry
        token._msgs_wire = self._msgs_wire
        token._msgs_n = self._msgs_n
        token._wire_list = messages
        token._wire_n = len(messages)
        token._ring_index = None
        token._ring_for = None
        return token

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Token(seq={self.seq}, ring={'-'.join(self.membership)}, "
            f"msgs={self.message_count()}, tbm={self.tbm})"
        )
