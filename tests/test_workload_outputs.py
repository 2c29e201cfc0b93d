"""The benchmark workloads' outputs, pinned byte for byte.

Each generator of `perfbench/workloads.py` runs at a small size and two
seeds, and at the benchmark's full size and seed 1, through
`harness.run_file`. The SHA-256 of the trace file, the store file and
stdout must not move: any change to the kernel that alters the order, the
content or the count of events fails here, on inputs with replica groups,
tokens, scaling and deep in-flight queues that the bundled scenarios do
not have.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from cloudadl import harness

from helpers import PKG_ROOT

sys.path.insert(0, str(PKG_ROOT / "perfbench"))
import workloads  # noqa: E402
from runner import FULL_SIZE  # noqa: E402

SMALL = {"stream": 60, "sessions": 80, "bigmodel": 20}

# (workload, seed) -> SHA-256 of (trace, store, stdout)
PINNED = {
    ("bigmodel", 1): (
        "9c490cd8ac54e58fdc1e0e843206e5bd718bc1ea0d8380ca1c82f73ca9854512",
        "6d7175c0a4704f62ab26518357557a652779ebeaf805f860b67f987df848b51d",
        "b91dcb281182b689629c388c21701eb9d073f88cf68995cce3cb8dacccfaf9b8",
    ),
    ("bigmodel", 7): (
        "6eb1874c9550b7273e266dec0512cdd1c3888fdb6a4ee3fe84c705a5447da184",
        "51d0253dddc0195121f7071842d2efbab505905b04e2e849a50cb08f7aae6635",
        "b91dcb281182b689629c388c21701eb9d073f88cf68995cce3cb8dacccfaf9b8",
    ),
    ("sessions", 1): (
        "1ff1269f6a54ef501077cf3d05d832cac72f67999095067fb900c1a7ece03af3",
        "58395795932d6ee0e840e186590b87c5d25f2ed0768c5d4ddf954c69ea802d51",
        "1c55e98db0ea56ff1c925844213d5a21139d1d65065911f50867d37ff9535839",
    ),
    ("sessions", 7): (
        "63ba06e74cb1af06b17145f3dcf195014bf394732baf394decb944aa18d4f947",
        "3741c83c900ca13720be713faf09534b240f2d00254c359e5045e6415d7b967e",
        "49f058ed7f296e1b6a7c5e6ffb1c8ec77b6ba002f205babb20f22ab8162542ad",
    ),
    ("stream", 1): (
        "6ecf4dde02c792ba76ef5e541041d80d620c0aa5ea0f3e64e72a0d57a6c21095",
        "b746c06ee81f86c988b7e8391fdccdd7662f03333f493133cddade5fa1297a24",
        "e3527fac716b79937d499e2fafd546a9d879599799ef9eb76af6c467b2c5358d",
    ),
    ("stream", 7): (
        "bf948004f6e057dc776647a33c94fc0a78380ae239464b36d7da26986e728cd5",
        "95a2971e932bc82a5c075e9921f52e973556b76cb79110fc356d4e412165d1fc",
        "e3527fac716b79937d499e2fafd546a9d879599799ef9eb76af6c467b2c5358d",
    ),
}


# workload -> SHA-256 of (trace, store, stdout) at FULL_SIZE and seed 1
PINNED_FULL = {
    "bigmodel": (
        "57f460fbacf2d57110715766d367dab6bb9b145d46c81a3720fb969e79e377c5",
        "e725f326e471c563a6c18969947cf39e9e410a9edf7fa1d12baa5cbc1411b7d2",
        "38c755f86c9314f6542131b9c62d0ed3e66df6af76ff86f2cff485ba3c193164",
    ),
    "sessions": (
        "3aa49608a0efabb1b1211646fc2125679824a53ff142313ba5d8bb9b5c9530fd",
        "7232ec21c6db8d11f07e9af06214efe22da193822e342c0d646dab561e56f7a2",
        "2abdc6d4264d7256fe86e28afa8d3f968340e85eb08aab21b87e6f4f04ad9871",
    ),
    "stream": (
        "04cd6e6101d26190b35f39215b86fd75ff01805cc118c51347ce28ef152cade1",
        "26cc2865ae8d66841eb5588d545aa2032b0ac5d42003d7c569cd68f530fb65f0",
        "f4a735b0ae01dbd3c32632205d95aa561a8bf05fffab423b4b50b9b9e80bae9c",
    ),
}


def output_digests(tmp_path, capsys, name: str, seed: int, size: int) -> tuple:
    inputs = workloads.GENERATORS[name](str(tmp_path), seed, size)
    trace, store = tmp_path / "run.trace", tmp_path / "run.store"
    report = harness.run_file(inputs.scenario, str(trace), str(store))
    assert report.status == harness.STATUS_PASS, report.render()
    stdout = capsys.readouterr().out.encode()
    return tuple(
        hashlib.sha256(data).hexdigest()
        for data in (trace.read_bytes(), store.read_bytes(), stdout)
    )


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_workload_outputs_match_pinned_digests(tmp_path, capsys, name, seed):
    assert output_digests(tmp_path, capsys, name, seed, SMALL[name]) == PINNED[name, seed]


@pytest.mark.parametrize("name", sorted(PINNED_FULL))
def test_full_size_workload_outputs_match_pinned_digests(tmp_path, capsys, name):
    got = output_digests(tmp_path, capsys, name, 1, FULL_SIZE[name])
    assert got == PINNED_FULL[name]
