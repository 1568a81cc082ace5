#!/usr/bin/env python3
"""Measure frequency selectivity on a synthetic tone and compare it with
the closed-form prediction for the chosen window family.

Synthesizes a sine, runs the full filterbank, takes the settled response
magnitude per channel relative to the on-frequency channel, and prints it
next to the transfer-function value at the same detuning. The two columns
should agree to a small fraction of a dB; the worst deviation is reported
at the end.
"""

import argparse
import math
import sys

import numpy as np

from tonescale.selectivity_analysis import selectivity_db_at_constant
from tonescale.spectrogram import (
    WindowScaleLaw,
    build_frequency_grid,
    compute_spectrogram,
    frequency_from_midi,
    midi_from_frequency,
)
from tonescale.temporal_scale_space import FAMILY_KINDS, SpectrogramFamily


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=FAMILY_KINDS, default="rec-log")
    ap.add_argument("--K", type=int, default=7)
    ap.add_argument("--c", type=float, default=math.sqrt(2.0))
    ap.add_argument("--n", type=float, default=8.0)
    ap.add_argument("--freq", type=float, default=440.0, help="probe tone frequency in Hz")
    ap.add_argument("--duration", type=float, default=3.0, help="tone length in seconds")
    ap.add_argument("--rate", type=float, default=44100.0)
    ap.add_argument("--span", type=float, default=6.0, help="half-width of the grid in semitones")
    ap.add_argument("--bins-per-octave", type=int, default=48)
    ap.add_argument("--floor-db", type=float, default=-40.0, help="ignore channels predicted below this")
    ap.add_argument("--out-csv", default=None, help="write nu, measured, predicted as TSV")
    args = ap.parse_args()

    nu0 = midi_from_frequency(args.freq)
    grid = build_frequency_grid(
        nu0 - args.span, nu0 + args.span, args.bins_per_octave, law=WindowScaleLaw(n=args.n)
    )
    fam = SpectrogramFamily(kind=args.family, K=args.K, c=args.c)
    t = np.arange(int(args.duration * args.rate)) / args.rate
    x = 0.5 * np.sin(2 * math.pi * args.freq * t)
    spec = compute_spectrogram(x, args.rate, grid, fam, hop=max(1, int(args.rate / 1000)))

    mag = np.abs(spec.values)
    level = np.median(mag[mag.shape[0] // 2 :, :], axis=0)
    center = int(np.argmin(np.abs(grid.nu - nu0)))
    measured = 20.0 * np.log10(level / level[center])

    freqs = frequency_from_midi(grid.nu)
    predicted = np.array(
        [
            selectivity_db_at_constant(fam, args.n * abs(args.freq - f) / f)
            for f in freqs
        ]
    )

    print(f"{'nu':>8} {'freq Hz':>9} {'measured dB':>12} {'predicted dB':>13} {'diff':>9}")
    keep = predicted >= args.floor_db
    for i in np.flatnonzero(keep):
        print(
            f"{grid.nu[i]:8.3f} {freqs[i]:9.2f} {measured[i]:12.4f} "
            f"{predicted[i]:13.4f} {measured[i] - predicted[i]:9.2e}"
        )
    worst = float(np.max(np.abs(measured[keep] - predicted[keep])))
    print(f"\nworst |measured - predicted| above {args.floor_db:g} dB: {worst:.2e} dB")

    if args.out_csv:
        rows = np.column_stack([grid.nu, measured, predicted])
        header = "nu\tmeasured_db\tpredicted_db"
        np.savetxt(args.out_csv, rows, delimiter="\t", header=header, comments="")
        print(f"wrote {args.out_csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
