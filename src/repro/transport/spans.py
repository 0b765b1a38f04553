"""Sorted, disjoint, half-open spans of seen sequence numbers.

Both duplicate filters keep what they have seen this way: the multicast
layer per origin (``msg_no``) and the transport per peer (``msg_id``).  A
flat list ``[start0, end0, start1, end1, ...]`` holds the spans in order,
so ``no`` was seen iff ``bisect_right(spans, no)`` is odd.  Numbers that
arrive in order only ever move the last span's end, so the list stays as
short as the gaps are few.
"""

from __future__ import annotations

from bisect import bisect_right

__all__ = ["add_seen"]


def add_seen(spans: list[int], no: int) -> bool:
    """Add ``no`` to ``spans``, joining neighbours; False if already seen."""
    i = bisect_right(spans, no)
    if i & 1:
        return False
    joins_lower = i > 0 and spans[i - 1] == no
    joins_upper = i < len(spans) and spans[i] == no + 1
    if joins_lower and joins_upper:
        del spans[i - 1 : i + 1]
    elif joins_lower:
        spans[i - 1] = no + 1
    elif joins_upper:
        spans[i] = no
    else:
        spans[i:i] = (no, no + 1)
    return True
