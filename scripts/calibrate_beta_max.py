#!/usr/bin/env python3
"""Back the default bump exponent ceiling with a synthetic sweep.

The detector flags an analysis window when its singularity exponent falls
below ``bump.beta_max``. This script rebuilds the window populations that
matter for that choice:

* road bumps - raised-cosine pulses over the realistic height range, seen
  through every device gain and both extremes of the gravity filter's
  smoothing schedule;
* violent handling artifacts - much larger pulses (phone drops, direct
  knocks) that reach the sensor without the road in the loop.

For each population it reports the exponent band, then sweeps candidate
ceilings and prints bump recall plus artifact rejection. The exponent
grows with pulse energy, so the ceiling is a recall guarantee with an
upper guard: every simulated bump must sit below it with margin, while
only the most violent artifacts land above it. Artifacts below the guard
are indistinguishable from bumps at window level by design; the speed
gate and cross-trip aggregation are the mechanisms that remove them.

Usage: python scripts/calibrate_beta_max.py [--margin 0.5]
"""
from __future__ import annotations

import argparse

import numpy as np

from roadsense import (
    dwt,
    filter_step,
    gravity_magnitude,
    lipschitz_algorithm1,
    load_config,
    make_filter,
)

GRAVITY = 9.8
WARMUP = 64

BUMP_HEIGHTS_G = np.arange(0.6, 2.41, 0.2)
BUMP_WIDTHS = (4, 6, 8)
DEVICE_GAINS = (0.5, 0.6, 0.75, 1.0, 1.5, 2.0)
OFFSETS = (8, 12, 16, 20)

ARTIFACT_AMPS_G = np.arange(4.0, 30.1, 2.0)
ARTIFACT_WIDTHS = (4, 6, 8, 10)


def window_beta(
    pulse_ms2: float, width: int, offset: int, alpha: float, window: int
) -> float | None:
    """Exponent of one settled analysis window containing a vertical pulse."""
    raw = np.full(WARMUP + window, GRAVITY)
    k = np.arange(1, width + 1)
    raw[WARMUP + offset : WARMUP + offset + width] += pulse_ms2 * np.sin(np.pi * k / (width + 1)) ** 2
    state = make_filter(alpha)
    values = []
    for v in raw:
        state, g = filter_step(state, 0.0, 0.0, float(v))
        values.append(gravity_magnitude(g))
    est = lipschitz_algorithm1(dwt(values[WARMUP:]))
    return est.beta_hat if est.valid else None


def collect(amps_ms2, widths, gains, alphas, window: int) -> np.ndarray:
    betas = []
    for amp in amps_ms2:
        for width in widths:
            for gain in gains:
                for alpha in alphas:
                    for offset in OFFSETS:
                        if offset + width > window - 2:
                            continue
                        b = window_beta(amp * gain, width, offset, alpha, window)
                        if b is not None:
                            betas.append(b)
    return np.asarray(betas)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--margin", type=float, default=0.5,
                        help="safety margin above the worst-case bump exponent")
    args = parser.parse_args(argv)

    config = load_config()
    window = config.signal.segment_len
    # Both extremes of the smoothing schedule.
    alphas = (config.roughness.alpha_schedule[0], config.roughness.alpha_schedule[-1])
    bumps = collect(BUMP_HEIGHTS_G * GRAVITY, BUMP_WIDTHS, DEVICE_GAINS, alphas, window)
    artifacts = collect(ARTIFACT_AMPS_G * GRAVITY, ARTIFACT_WIDTHS, (1.0,), alphas, window)

    print(f"bump windows:     {bumps.size:4d}  beta in [{bumps.min():+.3f}, {bumps.max():+.3f}]")
    print(f"artifact windows: {artifacts.size:4d}  beta in [{artifacts.min():+.3f}, {artifacts.max():+.3f}]")
    print()
    print("ceiling   bump recall   artifacts rejected")
    for ceiling in np.arange(-1.6, 2.01, 0.2):
        recall = float(np.mean(bumps < ceiling))
        rejected = float(np.mean(artifacts >= ceiling))
        print(f"{ceiling:+7.1f}   {recall:11.3f}   {rejected:18.3f}")
    print()

    tightest = bumps.max() + args.margin
    print(f"worst-case bump exponent: {bumps.max():+.3f}")
    print(f"tightest safe ceiling for this library (worst case + {args.margin}): {tightest:+.3f}")
    beta_max = config.bump.beta_max
    print(f"shipped default {beta_max:+.3f} keeps extra headroom for device gains and")
    print("pulse shapes outside the simulated grid; recall stays 1.0 either way.")
    weakest_rejected = ARTIFACT_AMPS_G[-1]
    for amp in ARTIFACT_AMPS_G:
        b = window_beta(amp * GRAVITY, 6, 12, alphas[0], window)
        if b is not None and b >= beta_max:
            weakest_rejected = amp
            break
    print(f"default rejects pulses from roughly {weakest_rejected:.0f} g; anything gentler")
    print("that is not a road bump is left to the speed gate and trip aggregation.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
