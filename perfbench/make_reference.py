"""Record the reference check values of every workload and reference slot.

Run from the root of a checkout at the commit whose outputs define "correct"::

    python3 perfbench/make_reference.py [workload ...]

Writes ``perfbench/reference/<workload>.json``.  A slot whose run fails an
operation is an error: the benchmark uses only inputs on which nothing fails.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main(names) -> int:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in names or workloads.NAMES:
            slots = {}
            for slot in range(workloads.SLOTS):
                wl = workloads.make(name, slot, scratch)
                wl.prepare()
                out = wl.outcome(wl.call())
                if out.failed:
                    raise SystemExit(f"{name} slot {slot}: {out.failed} operations failed")
                slots[str(slot)] = out.values
                print(f"{name} slot {slot}: {len(out.values)} check values", flush=True)
            path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
            with open(path, "w") as fh:
                json.dump({"workload": name, "rtol": workloads.RTOL, "slots": slots},
                          fh, separators=(",", ":"))
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
