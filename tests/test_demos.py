"""The demos, pinned: each one runs in its own empty working directory, and
the sha256 of its stdout and of every file it writes there must equal its
entry in ``PINNED``.

A change that alters a demo's output on purpose updates that entry and
lists it in CHANGES.md. ``PYTHONPATH=src python tests/test_demos.py``
prints the table for the tree it runs on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import pprint
import runpy
import tempfile

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_demo(name: str) -> dict[str, str]:
    """Run demo ``name`` in the working directory, which must be empty;
    return the sha256 of its stdout and of each file it wrote there."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    digests = {"stdout": _sha256(out.getvalue().encode())}
    digests.update((path.name, _sha256(path.read_bytes())) for path in sorted(pathlib.Path().iterdir()))
    return digests


PINNED = {'01_scripted_streaming.py': {'stdout': '59726f048ca74e63fdb0b5f823c25abe348482a6e1e7e01d9eac3eac8349733a'},
 '02_budget_forcing.py': {'stdout': '1121d3cd8b5bf49cb26338139b6f6fca6c5c838d341ff3a658bcbbd7a6296af9'},
 '03_prompts_and_extraction.py': {'stdout': '167434e77a360d7fe13326469a39a70334c1086ab76c85779be521cd528d4aeb'},
 '04_curation_pipeline.py': {'stdout': 'bd2a1f965a685f7210bb34cb1d33a2afafcd53f103683b5cb17338ba6aeb3138'},
 '05_scaling_sweep.py': {'stdout': '0c15cb7033196261ed396672cf98053c7ae9dfc78f1ac4895bc2a25dfc910ab0',
                         'sweep_demo.csv': '04aeff7992314591476316a0cc9e55fdb07e8f48e601f6007ee9367548b45bc7',
                         'sweep_demo.svg': '6c968d44e910c56629cf0f84bed76f5a615026999991897fafbe42cfc477e2ff'}}  # fmt: skip


# every demo in the directory, so a new one fails until it is pinned
@pytest.mark.parametrize("name", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_output_is_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_demo(name) == PINNED.get(name)


if __name__ == "__main__":
    table = {}
    for path in sorted(DEMOS.glob("*.py")):
        with tempfile.TemporaryDirectory() as directory:
            os.chdir(directory)
            table[path.name] = run_demo(path.name)
            os.chdir(DEMOS)  # out of the directory before it is removed
    print("PINNED = ", end="")
    pprint.pprint(table, width=120)
