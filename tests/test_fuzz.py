"""A seeded mutation fuzzer for the promise that no input ends in a traceback.

Each case takes a model and a scenario, from the bundled files or from
tests/modelgen.py, and mutates one of the two a few times: delete, insert,
replace or swap a word, replace a name by another name of the same text,
duplicate a line, or delete a byte range. A name swap keeps the text
parsing, so the case reaches `check`'s endpoint, gate and type rules
instead of stopping at a syntax error. It then runs `check`, `fmt` and
`sim --trace --store` through cli.main. Every run must end in a status of
0 to 3 with no exception, and where `fmt` succeeds its output must parse to
the same model as its input.

Two kinds of case are not simulated:
- one whose scenario loads with a `maxsteps` above MAX_SIM_STEPS: a mutated
  budget on a feedback loop could run without end;
- one whose model had names swapped: a swap can close a feedback loop with
  fan-out, whose messages multiply on every lap, and the kernel bounds a
  run's steps, not its messages.

Set CLOUDADL_FUZZ_CASES to run more cases per seed than the default.
"""

from __future__ import annotations

import os
import re
from random import Random

import pytest

from cloudadl.cli import main
from cloudadl.kernel import EVENT_KINDS, STRATEGIES
from cloudadl.parser import RESERVED, parse_model
from cloudadl.printer import pretty_print
from cloudadl.scenario import load_scenario

from helpers import MODELS_DIR, SCENARIOS_DIR
from modelgen import pipeline_text, random_model

SEEDS = (1, 2, 3)
CASES = int(os.environ.get("CLOUDADL_FUZZ_CASES", "100"))
MAX_SIM_STEPS = 10_000
STATUSES = (0, 1, 2, 3)

SCENARIO_WORDS = (
    "scenario", "model", "root", "seed", "maxsteps", "latency", "strategy", "scale",
    "fault", "inject", "at", "expect", "count", "prefix", "store", "event", "by",
)
VOCABULARY = (
    *sorted(RESERVED), *SCENARIO_WORDS, *EVENT_KINDS, *STRATEGIES,
    "{", "}", "(", ")", ";", ",", ".", ":", "=", "->", "/", "*", "<", "<=", ">=", '"', "//",
    "0", "1", "-1", "-7", "9" * 30, "9" * 5000, "-" + "9" * 400, str(2**63),
    "#0", "#rid", "root/#1", "root/w#99", "\x00", "µ", "λ", "²", "é\x00é", "z" * 300,
)
MODEL_LINE = re.compile(r"^model .*$", re.M)
NAME = re.compile(r"\b[^\W\d]\w*")
KEYWORDS = RESERVED | set(SCENARIO_WORDS)
KINDS = 6
SWAP_NAMES = 4


def bundled_bases() -> list[tuple[str, str]]:
    """(model text, scenario text) of each bundled scenario, model as m.arc."""
    bases = []
    for path in sorted(SCENARIOS_DIR.glob("*.scn")):
        scenario = path.read_text()
        model_name = MODEL_LINE.search(scenario).group().split("/")[-1]
        model = (MODELS_DIR / model_name).read_text()
        bases.append((model, MODEL_LINE.sub("model m.arc", scenario, count=1)))
    return bases


BUNDLED = bundled_bases()


def generated_base(rng: Random) -> tuple[str, str]:
    if rng.random() < 0.5:
        model = random_model(rng)
        root = next(iter(model.component_types))
        return pretty_print(model), f"scenario g\nmodel m.arc\nroot {root}\n"
    text, root, _stages = pipeline_text(rng)
    scenario = (
        f"scenario p\nmodel m.arc\nroot {root}\ninject feed at 1 Item{{n=1}}\n"
        "inject feed at 2 Item{n=2}\nexpect count drain 2 by 40\n"
    )
    return text, scenario


def mutate(rng: Random, text: str) -> tuple[bytes, bool]:
    """The mutated text, and whether a name swap was among its mutations."""
    swapped = False
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(KINDS)
        swapped = swapped or kind == SWAP_NAMES
        text = mutate_once(rng, text, kind)
    data = text.encode()
    if rng.random() < 0.15 and data:
        # a byte range may split a multi-byte character: not UTF-8 any more
        start = rng.randrange(len(data))
        data = data[:start] + data[start + rng.randint(1, 40):]
    return data, swapped


def mutate_once(rng: Random, text: str, kind: int) -> str:
    words = [m.span() for m in re.finditer(r"\S+", text)]
    if not words:
        return rng.choice(VOCABULARY) + text
    start, end = rng.choice(words)
    if kind == 0:  # delete a word
        return text[:start] + text[end:]
    if kind == 1:  # insert a word
        return text[:start] + rng.choice(VOCABULARY) + " " + text[start:]
    if kind == 2:  # replace a word, half the time by another word of the text
        a, b = rng.choice(words)
        word = text[a:b] if rng.random() < 0.5 else rng.choice(VOCABULARY)
        return text[:start] + word + text[end:]
    if kind == 3:  # swap two words
        (a, b), (c, d) = sorted((rng.choice(words), (start, end)))
        if b > c:
            return text
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    if kind == SWAP_NAMES:  # replace a name by another name of the text
        spans = [m.span() for m in NAME.finditer(text) if m.group() not in KEYWORDS]
        if not spans:
            return text
        start, end = rng.choice(spans)
        names = list(dict.fromkeys(text[a:b] for a, b in spans))
        return text[:start] + rng.choice(names) + text[end:]
    lines = text.splitlines(keepends=True)  # duplicate a line
    index = rng.randrange(len(lines))
    return "".join(lines[: index + 1] + lines[index:])


def run(argv: list[str], capsys, where: str) -> tuple[int, str]:
    try:
        status = main(argv)
    except Exception as exc:  # the promise under test: nothing escapes
        pytest.fail(f"{where}: {' '.join(argv)} raised {exc!r}")
    out = capsys.readouterr().out
    assert status in STATUSES, f"{where}: {' '.join(argv)} exited {status}"
    return status, out


def run_case(directory, rng: Random, where: str, capsys) -> None:
    model, scenario = rng.choice(BUNDLED) if rng.random() < 0.6 else generated_base(rng)
    files = {"m.arc": model.encode(), "s.scn": scenario.encode()}
    name = "s.scn" if rng.random() < 0.3 else "m.arc"
    files[name], swapped = mutate(rng, files[name].decode())
    directory.mkdir()
    for file_name, data in files.items():
        (directory / file_name).write_bytes(data)
    model_path, scenario_path = str(directory / "m.arc"), str(directory / "s.scn")
    where = f"{where} ({name} mutated, in {directory})"

    run(["check", model_path], capsys, where)
    status, formatted = run(["fmt", model_path], capsys, where)
    if status == 0:
        before, _ = parse_model(files["m.arc"].decode(), "before")
        after, diags = parse_model(formatted, "after")
        assert after == before, f"{where}: fmt changed the model {[d.render() for d in diags]}"

    if swapped and name == "m.arc":
        return
    loaded, _ = load_scenario(scenario_path)
    if loaded is not None and loaded.maxsteps > MAX_SIM_STEPS:
        return
    trace, store = str(directory / "t.tsv"), str(directory / "s.tsv")
    run(["sim", scenario_path, "--trace", trace, "--store", store], capsys, where)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_inputs_end_in_a_status(tmp_path, capsys, seed):
    rng = Random(seed)
    for case in range(CASES):
        run_case(tmp_path / f"case{case}", rng, f"seed {seed} case {case}", capsys)
