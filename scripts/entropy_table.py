#!/usr/bin/env python3
"""Print the exact block/step entropy table and the distance to the limit.

The step entropy decomposes exactly as log 2 + (1+p_n)/2 * log m where p_n
is a central-binomial weight, so the limit is log 2 + log(m)/2 and the gap
at any finite n is known in closed form.  This script tabulates both.
"""

import argparse
import math

from dyckshift.measures import entropy_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=12, help="largest block length")
    ap.add_argument("--m", type=int, default=2, help="number of bracket types")
    args = ap.parse_args()

    limit = math.log(2) + math.log(args.m) / 2
    print(f"# m={args.m}   h_n = log2 + (1+p_n)/2 * log{args.m}   limit {limit:.6f} nats")
    print(f"{'n':>3} {'h_n (nats)':>12} {'p_nonneg':>12} {'gap to limit':>14}")
    for n in range(args.max_n + 1):
        r = entropy_report(n, args.m)
        h = r.step.nats(args.m)
        print(f"{n:>3} {h:>12.6f} {str(r.p_nonneg):>12} {h - limit:>14.6f}")

    r = entropy_report(args.max_n, args.m)
    gap = r.step.nats(args.m) - limit
    # p_n ~ sqrt(2/(pi n)), so the gap halves only when n quadruples
    need = 2 / math.pi * (math.log(args.m) / (2 * 0.03)) ** 2
    print(f"# gap at n={args.max_n}: {gap:.6f} nats; a 0.03-nat gap needs n ~ {need:.0f}")


if __name__ == "__main__":
    main()
