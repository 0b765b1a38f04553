"""Hostile input on the offline file loaders.

``repro obs diff``, ``obs summary FILE`` and ``obs timeline FILE`` read a
file through :func:`repro.obs.diff.load_events`, ``obs render`` through
:func:`repro.obs.recorder.load_bundle`, and ``repro chaos --replay``
through :meth:`repro.chaos.schedule.Schedule.from_json`.  Each must be
total: whatever the file holds — arbitrary bytes, any JSON value, nesting
deeper than the parser's stack, a valid document with one member dropped
or mistyped — it returns a well-typed result or raises ``ValueError``
naming the file, and the CLI exits 2 with that message instead of a
traceback.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.chaos.schedule import OP_ARGS, ChaosParams, Schedule
from repro.cli import main
from repro.obs.diff import load_events
from repro.obs.recorder import load_bundle

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()  # NaN and the infinities included: json.dumps writes them
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

RECORDS = [
    {"n": 1, "at": 0.0, "node": "A", "kind": "core.wakeup", "args": []},
    {"n": 2, "at": 0.5, "node": "B", "kind": "token.accept", "args": ["A", "g.1", 3, 0]},
]
BUNDLE = {
    "schema": "repro.obs.bundle/2",
    "reason": "manual",
    "detail": "",
    "at": 0.5,
    "nodes": ["A", "B"],
    "context": {"seed": 1},
    "events": RECORDS,
    "metrics": {},
    "schedule": None,
    "alerts": [],
}
TRACE = json.loads(Schedule.generate(ChaosParams(nodes=3, seconds=4.0, seed=1)).to_json())
TRACE["ops"].append({"at": 1.0, "kind": "partition", "args": [["n00"], ["n01", "n02"]]})


def jsonl(records: list) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


#: Each valid document, and how it is written to a file.
DOCUMENTS = {
    "export": (RECORDS, jsonl),
    "capture": ([{"schema": "repro.obs.capture/1", "t0": 100.0}, *RECORDS], jsonl),
    "bundle": (BUNDLE, json.dumps),
    "trace": (TRACE, json.dumps),
}


def locations(doc, prefix=()):
    """Every path to a member of a JSON document, outermost first."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from locations(value, prefix + (key,))


@st.composite
def damaged(draw):
    """A valid document with one member dropped or replaced by any JSON value."""
    doc, write = DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))]
    doc = copy.deepcopy(doc)
    *head, last = draw(st.sampled_from(list(locations(doc))))
    parent = doc
    for key in head:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(json_values)
    return write(doc).encode()


hostile = (
    st.binary(max_size=256)
    | json_values.map(lambda value: json.dumps(value).encode())
    | damaged()
)

DEPTH = 100_000
DEEP = {
    "array": "[" * DEPTH + "]" * DEPTH,
    "object": '{"a":' * DEPTH + "0" + "}" * DEPTH,
    "jsonl-line": jsonl(RECORDS) + "[" * DEPTH + "]" * DEPTH + "\n",
    "bundle-events": json.dumps(dict(BUNDLE, events=[])).replace(
        '"events": []', '"events": ' + "[" * DEPTH + "]" * DEPTH
    ),
    "trace-ops": json.dumps(dict(TRACE, ops=[])).replace(
        '"ops": []', '"ops": ' + "[" * DEPTH + "]" * DEPTH
    ),
}

FIELD_TYPES = {"n": int, "at": (int, float), "node": str, "kind": str, "args": list}


def well_typed(record) -> bool:
    return isinstance(record, dict) and all(
        key in record and isinstance(record[key], types)
        for key, types in FIELD_TYPES.items()
    )


def loaded(load, path):
    """``load(path)``, or None when it refused with a ValueError naming the file."""
    try:
        return load(path)
    except ValueError as exc:
        assert str(path) in str(exc), exc
        return None


def check_schedule(schedule: Schedule) -> None:
    """What replay relies on: typed params, known ops with typed args."""
    p = schedule.params
    assert all(type(v) is int for v in (p.nodes, p.seed, p.segments))
    assert type(p.seconds) is float and type(p.intensity) is float
    assert type(p.strict) is bool
    for op in schedule.ops:
        assert type(op.at) is float
        assert len(op.args) == len(OP_ARGS[op.kind]) or op.kind == "partition" and op.args
        for arg in op.args:
            if isinstance(arg, tuple):
                assert all(isinstance(name, str) for name in arg)
            else:
                assert type(arg) in (str, int, float)
    assert Schedule.from_json(schedule.to_json()) == schedule


def check_loaders(path, data: bytes) -> tuple[bool, bool, bool]:
    """All three loaders on one file; returns which of them refused it."""
    records = loaded(load_events, path)
    if records is not None:
        assert records and all(well_typed(r) for r in records)
    bundle = loaded(load_bundle, path)
    if bundle is not None:
        assert isinstance(bundle["at"], (int, float))
        assert isinstance(bundle.get("alerts", []), list)
        assert all(well_typed(r) for r in bundle["events"])
    try:
        schedule = Schedule.from_json(data.decode("utf-8"))
    except ValueError:  # a UnicodeDecodeError is one, as in the CLI
        schedule = None
    if schedule is not None:
        check_schedule(schedule)
    return records is None, bundle is None, schedule is None


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@settings(deadline=None)
@given(data=hostile)
def test_loaders_are_total(scratch, data):
    path = scratch / "doc"
    path.write_bytes(data)
    check_loaders(path, data)


@pytest.mark.parametrize("name", sorted(DEEP))
def test_nesting_deeper_than_the_parser_is_refused(scratch, name):
    path = scratch / f"deep-{name}"
    data = DEEP[name].encode()
    path.write_bytes(data)
    assert check_loaders(path, data) == (True, True, True)
    assert main(["obs", "diff", str(path), str(path)]) == 2
    assert main(["chaos", "--replay", str(path)]) == 2


@settings(deadline=None, max_examples=50)
@given(data=hostile)
def test_cli_exits_two_on_what_the_loaders_refuse(scratch, data):
    path = scratch / "cli-doc"
    path.write_bytes(data)
    good = scratch / "good.jsonl"
    good.write_text(jsonl(RECORDS))
    events_refused, _, trace_refused = check_loaders(path, data)
    code = main(["obs", "diff", str(good), str(path)])
    assert code == 2 if events_refused else code in (0, 1)
    assume(trace_refused)  # an accepted trace would replay a whole campaign
    assert main(["chaos", "--replay", str(path)]) == 2
