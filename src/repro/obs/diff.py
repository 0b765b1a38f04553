"""Trace diff: localize the first divergence between two probe streams.

"Golden output changed" and "replay mismatch" usually arrive as a byte
diff over thousands of JSONL lines — technically precise, causally
useless.  This module turns the question around: given two probe exports
or diagnostic bundles (same seed across versions, shrunk vs. full trace),
it aligns the streams, finds the **first divergence point** by
(sim-time, node, probe-kind) with a bisection over the event prefix, and
renders a focused two-column report around it.  Everything downstream of
the first divergence is cascade; the first differing event is where the
causal investigation starts.

Works on anything that contains probe events:

* a JSONL export (``repro obs export``, one ``event_record`` per line);
* a diagnostic bundle (``repro.obs.bundle/1`` to ``/4``);
* a raintap collector capture (``repro.obs.capture/1`` to ``/3`` header
  line, then event records with wall-clock ``at`` — docs/TELEMETRY.md);

via :func:`load_events`, which sniffs the format.  The comparison is
over canonical event records (ordinal, sim-time, node, kind, args), so
two exports of byte-identical runs compare equal regardless of which
container they were stored in.

CLI: ``repro obs diff LEFT RIGHT`` (docs/MONITORING.md has a worked
example); exit code 0 = no divergence, 1 = divergence found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.obs.probe import ProbeEvent, check_record, event_record
from repro.obs.recorder import load_bundle

__all__ = [
    "Divergence",
    "load_events",
    "canonical_records",
    "first_divergence",
    "render_divergence",
]


@dataclass(frozen=True)
class Divergence:
    """The first point where two probe streams disagree.

    ``index`` is the position in stream order (0-based): both streams are
    identical for exactly ``index`` events.  ``left``/``right`` are the
    canonical records at that position — ``None`` when that side's stream
    ended (one stream is a strict prefix of the other).  ``at``, ``node``
    and ``kind`` locate the divergence for humans and machines alike,
    taken from whichever side has an event at the divergence point.
    """

    index: int
    at: float
    node: str
    kind: str
    left: dict | None
    right: dict | None

    def describe(self) -> str:
        return (
            f"first divergence at event #{self.index}: "
            f"t={self.at:.6f}s node={self.node} kind={self.kind}"
        )


def _record_of(item: object) -> dict:
    """Canonical record for one stream element (ProbeEvent or record dict)."""
    if isinstance(item, ProbeEvent):
        return event_record(item)
    return check_record(item)


def canonical_records(events: list) -> list[dict]:
    """Normalize a stream (ProbeEvents or record dicts) to canonical
    records in stream order, so comparisons never depend on the container
    the events travelled in."""
    return [_record_of(e) for e in events]


#: Schema-prefix of raintap collector capture files (the header line's
#: ``schema`` value), and the versions this loader reads (/1's
#: per-message delivers and /1–/2's per-message attaches load as runs of
#: one, via ``check_record``).  Literals, not an import: ``repro.obs``
#: never imports the runtime package.
_CAPTURE_PREFIX = "repro.obs.capture/"
_CAPTURE_SCHEMAS = tuple(_CAPTURE_PREFIX + v for v in ("1", "2", "3"))


def _capture_header(text: str) -> dict | None:
    """The capture header object iff ``text`` starts with one, else None."""
    first = text.lstrip().split("\n", 1)[0]
    try:
        obj = json.loads(first)
    except json.JSONDecodeError:
        return None
    if isinstance(obj, dict) and str(obj.get("schema", "")).startswith(
        _CAPTURE_PREFIX
    ):
        return obj
    return None


def load_events(path: str | Path) -> list[dict]:
    """Load probe-event records from an export, bundle, or capture file.

    Sniffs the format: a first line whose JSON object claims a
    ``repro.obs.capture/*`` schema is a collector capture (header
    skipped, wall-clock records follow); a whole-file JSON object
    carrying a ``schema`` key is a bundle (validated by the bundle
    loader, any supported schema); otherwise the file is treated as a
    JSONL export with one event record per line.  Raises ``ValueError``
    with the offending path/line on anything malformed, nesting too deep
    for the parser included.

    Capture files are written live by a collector and may have been cut
    off mid-write (a killed soak run): a **final** line that is torn —
    undecodable *and* missing its newline — is dropped silently.  A torn
    line anywhere else is interleaved corruption and still raises.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return _parse_events(path, text)
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply to load") from exc


def _parse_events(path: Path, text: str) -> list[dict]:
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path} is empty — not a probe export or bundle")
    header = _capture_header(stripped)
    if header is not None:
        schema = str(header["schema"])
        if schema not in _CAPTURE_SCHEMAS:
            raise ValueError(
                f"{path}: unsupported capture schema {schema!r} "
                f"(supported: {', '.join(_CAPTURE_SCHEMAS)})"
            )
        body = stripped.split("\n", 1)
        return _load_jsonl(path, body[1] if len(body) > 1 else "",
                           first_lineno=2, tolerate_torn_tail=True)
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None  # multiple documents: fall through to JSONL parsing
        if isinstance(doc, dict) and "schema" in doc:
            # one JSON document claiming a schema: a bundle
            # (load_bundle validates it against SUPPORTED_SCHEMAS)
            bundle = load_bundle(path)
            return canonical_records(bundle["events"])
    return _load_jsonl(path, text, first_lineno=1, tolerate_torn_tail=False)


def _load_jsonl(
    path: Path, text: str, *, first_lineno: int, tolerate_torn_tail: bool
) -> list[dict]:
    records: list[dict] = []
    lines = text.splitlines()
    last_index = len(lines) - 1
    ends_with_newline = text.endswith("\n")
    for i, line in enumerate(lines):
        lineno = first_lineno + i
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            if tolerate_torn_tail and i == last_index and not ends_with_newline:
                break  # torn final line of a live capture: drop it
            raise ValueError(
                f"{path}:{lineno}: not JSON ({exc.msg}) — "
                "expected a JSONL probe export"
            ) from exc
        try:
            records.append(_record_of(obj))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not records:
        raise ValueError(f"{path} contains no probe event records")
    return records


def first_divergence(left: list, right: list) -> Divergence | None:
    """Locate the first index where two streams disagree, or ``None``.

    Bisection over the event prefix: probe whether ``left[:k] ==
    right[:k]`` for midpoints ``k``, narrowing to the exact boundary of
    the longest common prefix.  Prefix equality is monotone in ``k``
    (equal prefixes stay equal when shortened), which is what makes the
    bisection sound; it also makes the common case — two identical
    multi-thousand-event exports — cheap to confirm: the first probe at
    ``k = n`` settles it.
    """
    a = canonical_records(left)
    b = canonical_records(right)
    shared = min(len(a), len(b))
    lo, hi = 0, shared  # invariant: a[:lo] == b[:lo]; a[:hi+..] unknown/unequal
    if a[:shared] == b[:shared]:
        lo = shared
    else:
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if a[lo:mid] == b[lo:mid]:
                lo = mid
            else:
                hi = mid - 1
        # lo is now the longest common prefix; a[lo] != b[lo] with lo < shared
    if lo == len(a) and lo == len(b):
        return None
    la = a[lo] if lo < len(a) else None
    rb = b[lo] if lo < len(b) else None
    anchor = la if la is not None else rb
    assert anchor is not None
    return Divergence(
        index=lo,
        at=float(anchor["at"]),
        node=str(anchor["node"]),
        kind=str(anchor["kind"]),
        left=la,
        right=rb,
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt(record: dict | None) -> str:
    if record is None:
        return "(end of stream)"
    args = ",".join(repr(a) for a in record["args"])
    return f"n={record['n']} t={record['at']:.6f} {record['node']} {record['kind']}({args})"


def render_divergence(
    left: list,
    right: list,
    divergence: Divergence | None,
    *,
    context: int = 3,
    left_label: str = "left",
    right_label: str = "right",
) -> str:
    """Two-column report focused on the divergence point.

    Shows the last ``context`` shared events (one column — they are
    identical by construction), then the two streams side by side from
    the first differing event.  With ``divergence=None`` the report is a
    single "no divergence" line, stable for CI gating.
    """
    if divergence is None:
        n = len(left)
        return f"no divergence: {n} events identical"
    a = canonical_records(left)
    b = canonical_records(right)
    i = divergence.index
    lines = [divergence.describe()]
    start = max(0, i - context)
    if start < i:
        lines.append(f"  shared prefix (last {i - start} of {i} events):")
        for rec in a[start:i]:
            lines.append(f"    = {_fmt(rec)}")
    lines.append(f"  {left_label} / {right_label} from event #{i}:")
    for k in range(i, i + context + 1):
        la = a[k] if k < len(a) else None
        rb = b[k] if k < len(b) else None
        if la is None and rb is None:
            break
        marker = "!" if k == i else "|"
        lines.append(f"    {marker} L {_fmt(la)}")
        lines.append(f"    {marker} R {_fmt(rb)}")
    return "\n".join(lines)
