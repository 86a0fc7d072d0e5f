"""Downsample and upsample a bandlimited signal on a path graph.

Shows the core guarantee of spectral-domain sampling: when the input
spectrum fits inside the reduced band, downsampling copies the coefficients
verbatim, and downsample -> upsample -> ideal lowpass recovers the signal
exactly.
"""
import numpy as np

import gssamp as gs


def main():
    n, m = 64, 2
    g0 = gs.build_path(n)
    g1 = gs.build_path(n // m)
    b0 = gs.eigendecompose(gs.laplacian(g0))
    b1 = gs.eigendecompose(gs.laplacian(g1))
    down = gs.SamplingContext(b0, b1)
    up = gs.SamplingContext(b1, b0)

    # bandlimited input: random GFT coefficients below the half-band cutoff
    coeffs = np.zeros(n)
    coeffs[: n // m] = np.random.default_rng(0).standard_normal(n // m)
    f = gs.igft(b0, coeffs)

    f_d = gs.spectral_downsample_index(down, f, m, folded=False)
    out_coeffs = gs.gft(b1, f_d).coefficients
    print(f"path({n}) -> path({n // m}), input bandlimited to index {n // m}")
    print(f"  max |downsampled spectrum - original low band| = "
          f"{np.abs(out_coeffs - coeffs[: n // m]).max():.3e}")

    f_u = gs.spectral_upsample_index(up, f_d, m, folded=False)
    rec = gs.igft(b0, gs.ideal_lowpass_index(gs.gft(b0, f_u), n // m - 1))
    rel = np.linalg.norm(rec - f) / np.linalg.norm(f)
    print(f"  down -> up -> lowpass recovery error = {rel:.3e}")

    # on a ring with DFT bases, spectral sampling IS classical decimation
    u0, u1 = gs.ring_sampling_bases(32, 16)
    ctx = gs.SamplingContext(u0, u1)
    x = np.random.default_rng(1).standard_normal(32)
    spec_down = gs.spectral_downsample_index(ctx, x, 2, folded=False)
    print("ring(32) with DFT bases, arbitrary signal:")
    print(f"  max |spectral downsample - every-other-sample| = "
          f"{np.abs(spec_down - x[::2]).max():.3e}")


if __name__ == "__main__":
    main()
