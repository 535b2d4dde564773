#!/usr/bin/env python3
"""How the spectral half-width of K = H^{-1} S shrinks with the step size.

For mass-dominated models the half-width scales linearly in tau (exactly so
when R = 0), which is what makes the H-preconditioned three-term methods
cheap at small steps.  Prints lambda over a tau sweep for the desk models
and the resulting Widlund/Rapoport convergence factors.
"""

import dhkrylov as dk

MODELS = {
    "mechanical (R=0)": {"name": "mechanical", "params": {"n": 40, "seed": 5, "damping": 0.0}},
    "mechanical": {"name": "mechanical", "params": {"n": 40, "seed": 5, "damping": 1.0}},
    "rlc": {"name": "rlc", "params": {}},
    "stokes stabilized": {"name": "stokes", "params": {"grid_n": 8, "viscosity": 100.0,
                                                       "stabilization": 0.005}},
}

TAUS = [1e-2, 1e-3, 1e-4, 1e-5]


def factors(lam):
    """Per-step Widlund and Rapoport factors: the bounds at k = 1 without the 2."""
    return dk.widlund_bound(lam, 1) / 2, dk.rapoport_bound(lam, 1) / 2


def main():
    for label, desc in MODELS.items():
        model = dk.from_descriptor(desc)
        print(f"== {label} ==")
        prev = None
        for tau in TAUS:
            sysm = dk.midpoint_system(model, tau).sys
            lam = dk.spectral_interval(sysm).lam
            fw, fr = factors(lam)
            shrink = f"  shrink x{prev / lam:6.2f}" if prev and lam > 0 else ""
            print(f"  tau={tau:8.1e}  lambda={lam:.6e}  factor_W={fw:.4e} "
                  f"factor_R={fr:.4e}{shrink}")
            prev = lam
        print()


if __name__ == "__main__":
    main()
