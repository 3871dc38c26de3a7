"""Time one set-up of a workload in a fresh interpreter: import thinkctl and
load the workload's input files through thinkctl's own loaders.

Usage: python3 perfbench/setup_probe.py SRC_DIR KIND:PATH...
KIND is ``questions`` (JSONL question file), ``script`` (scripted-model
JSON) or ``json`` (plain JSON, as the CLI reads a lexicon). Prints the
elapsed seconds.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    import thinkctl  # noqa: F401
    from thinkctl.client import ScriptedModel
    from thinkctl.jsonl import load_questions

    for spec in argv[1:]:
        kind, path = spec.split(":", 1)
        if kind == "questions":
            load_questions(path)
        elif kind == "script":
            ScriptedModel.from_file(path)
        elif kind == "json":
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
        else:
            raise SystemExit(f"unknown input kind {kind!r}")
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
