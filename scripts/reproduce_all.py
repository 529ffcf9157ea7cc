#!/usr/bin/env python3
"""Emit every bundled study dataset into out/reproduce (fig2..fig6, table1).

On a 2-core x86 machine with one BLAS thread the whole set takes about
40 s: table1 about 25 s (its nine mixed-traffic cells run on the
simulator), fig3, fig5 and fig6 3-4 s each, fig2 and fig4 under a second.
Pass --only to regenerate a subset.
"""

import argparse
import time
from pathlib import Path

from caflow.cli import FIGURES, run_reproduce


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/reproduce")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", nargs="*", choices=FIGURES, default=None)
    args = parser.parse_args()

    for figure in args.only or FIGURES:
        started = time.monotonic()
        path = run_reproduce(figure, Path(args.out), seed=args.seed)
        print(f"{figure}: {path} ({time.monotonic() - started:.1f}s)")


if __name__ == "__main__":
    main()
