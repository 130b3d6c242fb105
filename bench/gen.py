"""Set-up step of one benchmark run, executed as its own process.

    python3 bench/gen.py <workload> <seed> <output directory>

Imports the program, generates the seeded volume and writes the workload's
input file plus `expected.json` (the digest of the generated values). It
runs in a child process so that input generation never sets the measured
process's peak memory, and so that its wall time, imports included, is the
benchmark's set-up time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    name, seed, out = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    import svtf  # noqa: F401  # import time is part of set-up

    w = workloads.WORKLOADS[name]
    data = workloads.generate(name, seed)
    out.mkdir(parents=True, exist_ok=True)
    if w.source == "segy":
        workloads.write_segy_ibm(out / "input.sgy", data)
    else:
        workloads.write_raw(out / "input.raw", data)
    (out / "expected.json").write_text(
        json.dumps(
            {
                "shape": list(data.shape),
                "dtype": data.dtype.newbyteorder("<").str,
                "sha256": workloads.volume_digest(data),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
