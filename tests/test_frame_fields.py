"""What travels in a ``UdpFabric`` frame: the declared fields, and only them.

Every round trip here goes through the fabric's own ``send`` and
``_on_datagram`` (a capturing endpoint in between), so the frame prefix,
the size cap and the drop accounting are exercised with the codec.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import pickle
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.opengroup import OpenGroupAck, OpenGroupMessage
from repro.core.token import (
    ANCESTRY_DEPTH,
    Ordering,
    PiggybackedMessage,
    Rider,
    Token,
)
from repro.core.wire import BodyOdor, NineOneOne, NineOneOneReply, ReplyVerdict
from repro.data.replica import SyncRequest
from repro.data.resync import LogEntry, ResyncAck, ResyncDelta, ResyncSnapshot
from repro.net.eventloop import EventLoop
from repro.obs.probe import ProbeBus
from repro.runtime.udp import FABRIC_MAGIC, FABRIC_VERSION, UdpFabric
from repro.transport.messages import (
    AckFrame,
    BareFrame,
    DataFrame,
    registered_kinds,
)

PREFIX = FABRIC_MAGIC + bytes([FABRIC_VERSION])


class Codec:
    """``encode`` / ``decode`` through a fabric whose sender's endpoint keeps
    the datagram instead of sending it."""

    def __init__(self):
        self.fabric = UdpFabric({"a": 1, "b": 2})
        self.src, self.dst = self.fabric.address_of("a"), self.fabric.address_of("b")
        self.fabric._endpoints[self.src] = self
        self.fabric.bind(self.dst, self._deliver)

    def sendto(self, data, peer):
        self.data = data

    def _deliver(self, datagram):
        self.payload = datagram.payload

    def encode(self, payload) -> bytes:
        self.fabric.send(self.src, self.dst, payload, 0)
        return self.data

    def decode(self, data: bytes):
        self.fabric._on_datagram(self.dst, data)
        return self.__dict__.pop("payload")


def sample_token() -> Token:
    token = Token(seq=9, membership=("A", "B", "C"), view_id=2, gen="A.1", ancestry=("B.3",))
    token.attach_message(
        PiggybackedMessage(
            "A", 4, b"head", 4, Ordering.SAFE, frozenset("ABC"), {"B"}, True,
            (Rider("A", 5, "rider", 5, Ordering.SAFE),),
        )
    )
    return token


#: One instance of every registered message; the test below holds this
#: table to the registry, so a new message kind cannot skip the round trip.
SAMPLES = {
    "Token": sample_token(),
    "NineOneOne": NineOneOne("A", 7, 2),
    "NineOneOneReply": NineOneOneReply("B", 2, ReplyVerdict.DENY_NEWER_COPY, 9),
    "BodyOdor": BodyOdor("C", "A"),
    "OpenGroupMessage": OpenGroupMessage("client", 3, {"k": [1, 2]}, 12, safe=True),
    "OpenGroupAck": OpenGroupAck("A", 3),
    "SyncRequest": SyncRequest("dict", "B", 5, "abcd"),
    "ResyncAck": ResyncAck("dict", "A", 32, "f00d"),
    "ResyncDelta": ResyncDelta(
        "dict", "B", 5, "abcd", (LogEntry(6, ("set", "k", 1), 26, "beef"),)
    ),
    "ResyncSnapshot": ResyncSnapshot("dict", {"k": 1}, 32, "f00d"),
}


def test_every_registered_message_round_trips():
    assert sorted(SAMPLES) == list(registered_kinds())
    codec = Codec()
    for name, message in SAMPLES.items():
        assert type(message).__name__ == name
        for frame in (
            DataFrame("a", "b", 1, message),
            BareFrame("a", "b", message),
            AckFrame("b", "a", 1),
        ):
            back = codec.decode(codec.encode(frame))
            assert back == frame and type(back) is type(frame)
            assert type(getattr(back, "payload", message)) is type(message)


MEMBERS = ["n0", "n1", "n2", "n3", "n4", "n5"]
PAYLOADS = st.one_of(
    st.integers(), st.text("xyz", max_size=6), st.binary(max_size=6),
    st.tuples(st.text("xyz", max_size=3), st.integers()),
)
LINEAGES = st.builds("{}.{}".format, st.sampled_from(MEMBERS), st.integers(1, 99))


@st.composite
def tokens(draw):
    ring = tuple(draw(st.lists(st.sampled_from(MEMBERS), min_size=1, max_size=6, unique=True)))
    packs = []
    for number in range(draw(st.integers(0, 6))):
        origin = draw(st.sampled_from(ring))
        ordering = draw(st.sampled_from(list(Ordering)))
        base = 100 * number
        riders = tuple(
            Rider(origin, base + 1 + k, draw(PAYLOADS), draw(st.integers(0, 300)), ordering)
            for k in range(draw(st.integers(0, 20)))
        )
        packs.append(
            PiggybackedMessage(
                origin, base, draw(PAYLOADS), draw(st.integers(0, 300)), ordering,
                frozenset(ring), draw(st.sets(st.sampled_from(ring))),
                ordering is Ordering.SAFE and draw(st.booleans()), riders,
            )
        )
    return Token(
        seq=draw(st.integers(0, 2**40)), membership=ring, messages=packs,
        tbm=draw(st.booleans()), view_id=draw(st.integers(0, 999)),
        gen=draw(LINEAGES),
        ancestry=tuple(draw(st.lists(LINEAGES, max_size=ANCESTRY_DEPTH, unique=True))),
    )


CACHE_SLOTS = [f.name for f in dataclasses.fields(Token) if not f.init]


@settings(max_examples=60, deadline=None)
@given(token=tokens())
def test_tokens_round_trip_without_their_caches(token):
    codec = Codec()
    data = codec.encode(DataFrame("a", "b", 1, token))
    assert CACHE_SLOTS and all(name.startswith("_") for name in CACHE_SLOTS)
    assert not [name for name in CACHE_SLOTS if name.encode() in data]
    back = codec.decode(data).payload
    assert back == token
    assert back.wire_size() == back.recompute_wire_size() == token.wire_size()
    assert back.message_count() == token.message_count()
    assert [back.next_after(m) for m in token.membership] == [
        token.next_after(m) for m in token.membership
    ]
    # The rebuilt caches are live, not a picture of the sender's: the token
    # goes on through attach, retire and the local copy like a native one.
    back.attach_message(
        PiggybackedMessage("n0", 9000, b"new", 3, audience=frozenset(back.membership))
    )
    assert back.wire_size() == back.recompute_wire_size()
    assert back.message_count() == token.message_count() + 1
    retired, surviving = back.messages[:1], back.messages[1:]
    back.retire_messages(retired, surviving)
    assert back.wire_size() == back.recompute_wire_size()
    copy = back.snapshot()
    assert copy == back and copy.wire_size() == back.wire_size()


FRESH_INTERPRETER_FRAME = """
import sys
from tests.test_frame_fields import Codec, sample_token
from repro.transport.messages import DataFrame
sys.stdout.buffer.write(Codec().encode(DataFrame("a", "b", 1, sample_token())))
"""


def test_frame_from_a_fresh_interpreter_decodes_here():
    root = pathlib.Path(repro.__file__).parents[2]
    out = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER_FRAME],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])},
        capture_output=True, check=True, timeout=60,
    )
    token = Codec().decode(out.stdout).payload
    assert token == sample_token()
    assert token.wire_size() == token.recompute_wire_size()


@dataclasses.dataclass
class Reading:
    """An application payload from outside ``repro.``: not the table's."""

    value: int
    seen: int = dataclasses.field(default=0, init=False)


def test_foreign_dataclass_keeps_its_undeclared_state():
    reading = Reading(3)
    reading.seen = 7
    codec = Codec()
    back = codec.decode(codec.encode(DataFrame("a", "b", 1, reading))).payload
    assert back == reading and back.seen == 7
    assert Reading not in codec.fabric._declared
    assert DataFrame in codec.fabric._declared


class _WrongArity:
    def __reduce__(self):
        return (AckFrame, ("only-one",))


def test_constructor_that_raises_is_garbage_not_an_exception():
    codec = Codec()
    bus = ProbeBus(EventLoop(seed=1))
    recorded = []
    bus.subscribe(recorded.append)
    codec.fabric.probe = bus
    body = pickle.dumps((codec.src, codec.dst, 1, _WrongArity()))
    codec.fabric._on_datagram(codec.dst, PREFIX + body)
    (drop,) = recorded
    assert drop.kind == "net.drop" and drop.args[-1] == "garbage"
    assert codec.fabric.packets_dropped == 1 and "payload" not in codec.__dict__
