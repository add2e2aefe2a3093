#!/usr/bin/env python3
"""Exact vs asymptotic E[Z] for regular ensembles, over admissible sizes.

The parity ensembles have known constants (1 for (3,6), 2 for (2,4)), so
the ratio column doubles as a check of the step-size handling.
"""

import argparse
import math

from central_approx import (
    exact_expected_Z,
    fg_constant_log,
    lattice_step_s,
    make_ensemble,
    solve_bethe,
)
from central_approx.types_core import Alphabet

BINARY = Alphabet((0.0, 1.0))


def sweep(l: int, r: int, factor: str, sizes) -> None:
    ens = make_ensemble(l, r, BINARY, factor)
    sol = solve_bethe(ens)
    const = fg_constant_log(ens, sol)
    print(f"({l},{r}) {factor}:  F = {sol.F:.12g}   constant = {math.exp(const):.12g}"
          f"   s = {lattice_step_s(ens)}")
    for N in sizes:
        if (N * l) % r:
            continue
        exact = exact_expected_Z(ens, N)
        est = N * sol.F + const
        print(f"  N={N:<4d}  ratio = {math.exp(exact - est):.9f}")
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", default="20,40,60,80", help="comma-separated sizes")
    args = ap.parse_args()
    sizes = [int(t) for t in args.N.split(",")]
    sweep(3, 6, "parity", sizes)
    sweep(2, 4, "parity", sizes)
    sweep(2, 4, "uniform", sizes)


if __name__ == "__main__":
    main()
