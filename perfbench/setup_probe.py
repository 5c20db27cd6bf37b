"""Time one fresh process's set-up for a workload config: import mdnas, parse
the config, then build the Searcher (search workloads) or the evaluator
(simulate workloads).  Interpreter start-up is not included.

Usage: python3 perfbench/setup_probe.py CONFIG.json search|simulate
Prints the set-up time in seconds.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    config_path, kind = sys.argv[1], sys.argv[2]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import mdnas  # noqa: F401
    from mdnas.engine import SearchConfig, Searcher, build_evaluator

    doc = json.loads(Path(config_path).read_text())
    seeds = doc.pop("seeds", None)
    if seeds:
        doc["seed"] = seeds[0]  # a batch builds one Searcher per seed
    config = SearchConfig.from_dict(doc)
    if kind == "search":
        Searcher(config)
    else:
        build_evaluator(config)
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
