"""Record the golden digests every benchmark run checks against.

    PYTHONHASHSEED=0 python3 bench/record_golden.py

Runs every item of every workload once (the lemma battery at each of the
LEMMA_SEEDS lemma seeds) and writes bench/golden.json, a sha256 of each
item's canonical output.  Re-record only at a commit whose reports are
known to be right: a later change that alters a single report byte is
meant to fail the benchmark.  Takes about six minutes on a 2-core VM.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def tower_docs():
    """Soluble corpus groups of order <= TOWER_ORDER_LIMIT."""
    from cppo import atlas, corpus, structure

    out = []
    for doc in corpus.default_corpus():
        g = atlas.load_group_spec(doc)
        if g.order() <= workloads.TOWER_ORDER_LIMIT and structure.is_soluble(g):
            out.append(doc)
    return out


def all_items() -> dict:
    """Every item the digests cover: each workload at seed 0, and the lemma
    battery at every lemma seed."""
    tower = {"tower_certify": [workloads.doc_key(d) for d in tower_docs()]}
    out = {w: workloads.make_items(w, 0, tower) for w in ("corpus_theorems", "tower_certify")}
    out["lemma_battery"] = [item for s in range(workloads.LEMMA_SEEDS)
                            for item in workloads.make_items("lemma_battery", s, {})]
    return out


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        raise SystemExit("run with PYTHONHASHSEED=0, as the benchmark's workers do")
    workloads.import_package()
    golden = {}
    for workload, items in all_items().items():
        golden[workload] = {}
        for item in items:
            text, problem = item.run()
            if problem:
                raise SystemExit("%s %s: %s; refusing to record" % (workload, item.label, problem))
            golden[workload][item.key] = workloads.digest(text)
        print("%s: %d items" % (workload, len(items)), flush=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
