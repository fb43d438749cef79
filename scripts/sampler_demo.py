#!/usr/bin/env python3
"""Draw windows from one of the three samplers and sanity-check frequencies.

Dumps a few samples, then (for the coin-flip sampler) compares empirical
cylinder frequencies on short words against their exact values, in sigma
units.  For the drifting samplers it reports how the window classifier
labels each half instead.
"""

import argparse
from collections import Counter

from dyckshift.analysis import classify_window, empirical_cylinders
from dyckshift.coding import SAMPLERS
from dyckshift.measures import tilde_cylinder_value
from dyckshift.words import Word, enumerate_language


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--measure", choices=sorted(SAMPLERS), default="tilde")
    ap.add_argument("--lo", type=int, default=-4, help="left window bound")
    ap.add_argument("--hi", type=int, default=4, help="right window bound")
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--show", type=int, default=8, help="samples to dump")
    args = ap.parse_args()

    lo, hi = args.lo, args.hi
    sampler = SAMPLERS[args.measure]
    samples = list(sampler(args.m, lo, hi, seed=args.seed, count=args.count))
    truncated = sum(1 for x in samples if x.truncated)

    print(f"# {args.measure} sampler, window [{lo}, {hi}], seed {args.seed}, {args.count} samples")
    print(f"# truncated: {truncated} ({truncated / args.count:.2%})")
    for x in samples[: args.show]:
        print(f"  {x.text()}" + ("   [truncated]" if x.truncated else ""))

    if args.measure == "tilde":
        print(f"\n{'cylinder':>14} {'exact':>10} {'empirical':>10} {'sigma':>7}")
        words = [w for n in (1, 2) for w in enumerate_language(n, args.m)]
        estimates = empirical_cylinders(samples, [(w, 0) for w in words])
        for w, est in zip(words, estimates):
            exact = tilde_cylinder_value(w)
            sigma = est.sigma_distance(exact.value)
            print(
                f"{('[' + w.text() + ']_0'):>14} {float(exact):>10.5f} "
                f"{float(est.estimate):>10.5f} {sigma:>7.2f}"
            )
    else:
        labels = Counter(
            (d.forward_label, d.backward_label)
            for x in samples
            if not x.truncated
            for d in [classify_window(x)]
        )
        print("\n# (forward, backward) drift labels:")
        for pair, k in labels.most_common():
            print(f"  {pair[0]:>20} / {pair[1]:<20} {k:>6}")


if __name__ == "__main__":
    main()
