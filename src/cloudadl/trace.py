"""Tab-separated trace rendering.

One line per event: step, kind, subject, sequence number, tokens, payload.
Empty columns hold "-". Tokens render as name#serial, sorted, joined by
commas. Two runs of the same model, scenario, and seed render to the same
bytes.
"""

from __future__ import annotations

from .kernel import Event


def render_tokens(tokens: tuple[tuple[str, int], ...]) -> str:
    if not tokens:
        return "-"
    return ",".join(f"{name}#{serial}" for name, serial in sorted(tokens))


def render_trace(events: list[Event]) -> str:
    # Events share tokens tuples: a message's SEND and DELIVER, its gateless
    # hops, and every untokened event. Render each distinct tuple once.
    columns: dict[tuple, str] = {(): "-"}
    lines = []
    append = lines.append
    for ev in events:
        toks = columns.get(ev.tokens)
        if toks is None:
            toks = columns[ev.tokens] = render_tokens(ev.tokens)
        seq = "-" if ev.seq is None else ev.seq
        append(f"{ev.step}\t{ev.kind}\t{ev.subject}\t{seq}\t{toks}\t{ev.payload}\n")
    return "".join(lines)
