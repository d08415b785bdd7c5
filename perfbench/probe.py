"""Set-up probe: build one workload's program state cold, print ``ready``.

Run by the benchmark with a fresh, empty ``REPRO_CACHE_DIR``; the time
from spawning this process to its ready line is one ``setup_s`` sample::

    python3 perfbench/probe.py score-blocked
"""

import sys

from common import require_program


def main() -> int:
    require_program()
    import programs

    programs.build(sys.argv[1])
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
