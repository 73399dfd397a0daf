#!/usr/bin/env python3
"""Convergence study of the displacement oracle against the closed forms.

For one parameter draw and one energy level, integrates the perturbed flow
at a geometric ladder of perturbation sizes and reports d(eps)/eps next to
the closed-form prediction M1 + eps M2, the fitted cubic model, and the
empirical convergence order of |d/eps - M1| in eps.
"""

import argparse
import sys

import numpy as np

from duffing_melnikov.abelian import period_vector
from duffing_melnikov.geometry import Annulus
from duffing_melnikov.melnikov import (
    PerturbationParams,
    enforce_m1_zero,
    m1_form,
    m2_form,
    m_eval,
)
from duffing_melnikov.oracle import melnikov_fit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--h", type=float, default=-0.125)
    ap.add_argument("--annulus", default="interior-right",
                    choices=[a.value for a in Annulus])
    ap.add_argument("--constrained", action="store_true",
                    help="project the draw onto the first-order vanishing set "
                         "so the quadratic term is the second-order function")
    ap.add_argument("--eps-max", type=float, default=1e-2)
    ap.add_argument("--rungs", type=int, default=6)
    args = ap.parse_args()

    annulus = Annulus.from_label(args.annulus)
    rng = np.random.default_rng(args.seed)
    params = PerturbationParams.uniform(rng)
    if args.constrained:
        params = enforce_m1_zero(params, annulus)

    pv = period_vector(args.h, annulus)
    m1 = float(np.real(m_eval(m1_form(params, annulus), args.h, pv)))
    m2 = None
    if args.constrained:
        m2 = float(np.real(m_eval(m2_form(params, annulus), args.h, pv)))
    print(f"h = {args.h}, {annulus.value}, seed {args.seed}, "
          f"constrained = {args.constrained}")
    print(f"closed forms: M1 = {m1:+.12e}" + (f",  M2 = {m2:+.12e}" if m2 is not None else ""))

    eps_list = [args.eps_max / 2 ** k for k in range(args.rungs)]
    fit = melnikov_fit(args.h, params, annulus, eps_list=tuple(eps_list))
    print(f"\n{'eps':>10s} {'d(eps)/eps':>22s} {'d/eps - M1':>14s} {'(d/eps-M1)/eps':>16s}")
    resid = []
    for sample in fit.samples:
        eps, first = sample.epsilon, sample.d / sample.epsilon
        resid.append(abs(first - m1))
        print(f"{eps:10.2e} {first:22.14e} {first - m1:14.4e} {(first - m1) / eps:16.8e}")

    # empirical order of the first-order truncation error (expect 1: the eps^2 term)
    resid = np.array(resid)
    good = resid > 0
    if good.sum() >= 2:
        order = np.polyfit(np.log(np.array(eps_list)[good]), np.log(resid[good]), 1)[0]
        print(f"\nempirical order of d/eps - M1: {order:.3f} (expect 1.0)")

    print(f"cubic fit: M1 = {fit.m1:+.12e} +- {fit.m1_err:.2e}")
    print(f"           M2 = {fit.m2:+.12e} +- {fit.m2_err:.2e}"
          + ("" if m2 is None else f"   (closed {m2:+.12e})"))
    print(f"condition number of the weighted design: {fit.condition:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
