"""Set up one workload in a fresh process and print ``ready``.

``run.py`` times this script from launch to the ``ready`` line to measure
set-up: interpreter start, importing numpy, scipy and modecast, parsing
the config and loading or generating and writing the inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <work dir>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workloads.WORKLOADS[name](ROOT, seed, workdir).setup()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
