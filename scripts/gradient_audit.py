"""Compare analytic gradients against central differences, per parameter.

Sweeps a handful of model sizes and reports the worst relative error for
every named tensor, which makes it obvious which part of the graph broke
when a change regresses the backward pass. The relative error for a
coordinate is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).

Small initialization scales leave many coordinates with gradients near
1e-8, where the finite-difference quotient is pure roundoff; audit runs
therefore default to a wider init band than training uses.

    python3 scripts/gradient_audit.py --scale 1.2 --coords 6
"""

import argparse

import numpy as np

from cmla.autodiff import constant, grad_check
from cmla.model import CLASS_ORDER, CmlaParams, forward, loss

SWEEP = [
    # dim, channels, length, seed
    (4, 2, 3, 0),
    (5, 3, 3, 3),
    (5, 3, 4, 5),
    (6, 3, 5, 0),
    (8, 4, 6, 6),
    (6, 3, 25, 7),   # a long sentence: backprop through 25 steps
]


def audit_config(dim, channels, length, seed, scale, coords):
    gen = np.random.default_rng(seed)
    params = CmlaParams.init(dim=dim, channels=channels, rng=gen, init_scale=scale)
    xs = [constant(gen.uniform(-1, 1, size=dim)) for _ in range(length)]
    gold_a = "".join(CLASS_ORDER[int(gen.integers(3))] for _ in range(length))
    gold_p = "".join(CLASS_ORDER[int(gen.integers(3))] for _ in range(length))

    def f():
        return loss(forward(xs, params)[0], gold_a, gold_p)

    rows = []
    for name, tensor in params.named_tensors().items():
        err = grad_check(f, [tensor], max_coords_per_param=coords, rng=seed)
        rows.append((name, err))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.2,
                    help="init band half-width for the audited parameters")
    ap.add_argument("--coords", type=int, default=6,
                    help="coordinates sampled per tensor (0 = exhaustive)")
    ap.add_argument("--tolerance", type=float, default=1e-4)
    args = ap.parse_args()
    coords = args.coords if args.coords > 0 else None

    overall = 0.0
    for dim, channels, length, seed in SWEEP:
        rows = audit_config(dim, channels, length, seed, args.scale, coords)
        worst_name, worst = max(rows, key=lambda r: r[1])
        overall = max(overall, worst)
        flag = "ok" if worst < args.tolerance else "FAIL"
        print(f"dim={dim} channels={channels} length={length} seed={seed}: "
              f"worst {worst:.3e} at {worst_name} [{flag}]")
        for name, err in sorted(rows, key=lambda r: -r[1])[:3]:
            print(f"    {name:<24} {err:.3e}")

    print()
    status = "within" if overall < args.tolerance else "OUTSIDE"
    print(f"overall worst relative error {overall:.3e} "
          f"({status} tolerance {args.tolerance:.0e})")
    raise SystemExit(0 if overall < args.tolerance else 1)


if __name__ == "__main__":
    main()
