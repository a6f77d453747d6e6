"""Build one workload's inputs in a fresh process and print its timings.

    python3 perfbench/prepare.py WORKLOAD SEED OUT_DIR

`run.py` runs this several times per benchmark run; the last line of
standard output is one JSON object (see `workloads.setup`).
"""

import json
import sys

from pipeline import import_program


def main(argv):
    name, seed, out = argv
    import_program()
    from workloads import WORKLOADS, setup

    print(json.dumps(setup(WORKLOADS[name], int(seed), out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
