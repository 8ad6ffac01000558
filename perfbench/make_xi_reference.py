#!/usr/bin/env python3
"""Record the couple workload's reference xi values.

Runs `polyemit couple` on the 20 untransformed base pairs and writes
xi_reference.json next to this file. The stored values are a regression
oracle: they were recorded once, when the benchmark was defined, and the
benchmark compares every later commit against them. Do not re-record them
to make a failing check pass; re-record only when the base pairs
themselves change (the file stores their digest, and the benchmark refuses
a mismatch).

    python3 perfbench/make_xi_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    values = []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        for k, (a, b, index) in enumerate(wl.base_pairs()):
            wl.write_json(tmp / "a.json", wl.emitter_doc(a))
            wl.write_json(tmp / "b.json", wl.emitter_doc(b))
            wl.run_cli(wl.couple_argv(str(tmp / "a.json"), str(tmp / "b.json"),
                                      index, str(tmp / "out.json")))
            xi = json.loads((tmp / "out.json").read_text("utf-8"))["xi_rad_per_s"]
            values.append([xi["re"], xi["im"]])
    doc = {"base_pairs_sha256": wl.base_pairs_digest(),
           "xi_rad_per_s": values}
    wl.XI_REFERENCE.write_text(json.dumps(doc, indent=1) + "\n",
                               encoding="utf-8")
    print(f"wrote {wl.XI_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
