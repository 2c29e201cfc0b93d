"""Tab-separated trace rendering.

One line per kernel event tuple (see the kernel module docstring): step,
kind, subject, sequence number, tokens, payload; the channel is left out.
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

BATCH_LINES = 512


def render_tokens(tokens: tuple[tuple[str, int], ...]) -> str:
    if not tokens:
        return "-"
    return ",".join(f"{name}#{serial}" for name, serial in sorted(tokens))


def render_trace(events: Iterable[tuple], out: TextIO) -> None:
    # Events share tokens tuples: a message's SEND and DELIVER and its
    # gateless hops. Render each distinct tuple once.
    columns: dict[tuple, str] = {}
    lines: list[str] = []
    append = lines.append
    # The kernel's events of one step share its step object: format the
    # step column once per run of such events.
    last_step = head = None
    for step, kind, subject, seq, tokens, payload, _channel in events:
        if step is not last_step:
            last_step = step
            head = f"{step}\t"
        if tokens:
            toks = columns.get(tokens)
            if toks is None:
                toks = columns[tokens] = render_tokens(tokens)
        else:
            toks = "-"
        if seq is None:
            seq = "-"
        append(f"{head}{kind}\t{subject}\t{seq}\t{toks}\t{payload}\n")
        if len(lines) == BATCH_LINES:
            out.write("".join(lines))
            lines.clear()
    if lines:
        out.write("".join(lines))
