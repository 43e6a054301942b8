#!/usr/bin/env python3
"""Regenerate every table and figure of the paper (the runme.sh analog).

    python examples/paper_experiments.py                # all, tiny scale
    python examples/paper_experiments.py fig12_rounds   # one experiment
    REPRO_SCALE=small python examples/paper_experiments.py

This is ``repro experiments`` with the scale read from ``REPRO_SCALE``
instead of ``--scale``; the exit status is the command's.
"""

import os
import sys

from repro.__main__ import main as repro_main


def main() -> int:
    scale = os.environ.get("REPRO_SCALE", "tiny")
    return repro_main(["experiments", "--scale", scale, *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
