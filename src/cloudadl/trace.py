"""Tab-separated trace rendering.

One line per event: step, kind, subject, sequence number, tokens, payload.
Empty columns hold "-". Tokens render as name#serial, sorted, joined by
commas. Two runs of the same model, scenario, and seed render to the same
bytes.

render_trace writes the lines to a text stream as it renders them, in
batches of BATCH_LINES, so the text it holds at any time is bounded however
long the trace is; only its token-column memo grows, by one string per
distinct token tuple. Batching also keeps an unbuffered stream, such as
stdout under python -u, at one write per batch rather than one per line.
"""

from __future__ import annotations

from typing import Iterable, TextIO

from .kernel import Event

BATCH_LINES = 512


def render_tokens(tokens: tuple[tuple[str, int], ...]) -> str:
    if not tokens:
        return "-"
    return ",".join(f"{name}#{serial}" for name, serial in sorted(tokens))


def render_trace(events: Iterable[Event], out: TextIO) -> None:
    # Events share tokens tuples: a message's SEND and DELIVER, its gateless
    # hops, and every untokened event. Render each distinct tuple once.
    columns: dict[tuple, str] = {(): "-"}
    lines: list[str] = []
    append = lines.append
    for ev in events:
        toks = columns.get(ev.tokens)
        if toks is None:
            toks = columns[ev.tokens] = render_tokens(ev.tokens)
        seq = "-" if ev.seq is None else ev.seq
        append(f"{ev.step}\t{ev.kind}\t{ev.subject}\t{seq}\t{toks}\t{ev.payload}\n")
        if len(lines) == BATCH_LINES:
            out.write("".join(lines))
            lines.clear()
    if lines:
        out.write("".join(lines))
