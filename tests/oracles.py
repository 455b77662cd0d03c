"""Reference implementations kept for the tests only.

The library enforces the orbit reduction through ``OrbitBlocks`` and an
orbit-rank table, reads window maxima off prefix extremes and signs whole
runs of the walk order at once; these materialise the same objects directly
and walk one point at a time, so the tests can compare the two.
"""

import math

import numpy as np

from zndisc.engine import _WalkTable


def orbit_intersection(n, d, a, xs):
    """X intersected with the step-d orbit of residue a, in ascending k of x = a + k*d."""
    xs = np.unique(np.asarray(xs, dtype=np.int64))
    if n == 1:
        return xs
    g = math.gcd(d, n)
    L = n // g
    sel = xs[xs % g == a]
    k = (sel - a) // g * pow(d // g, -1, L) % L
    return sel[np.argsort(k, kind="stable")]


def explicit_walk_table(xs, blocks, deltas):
    """The walk table over materialised blocks: one position per (point, block)
    pair, padded with the exempt id.  ``blocks`` maps size -> element arrays."""
    m = int(xs.size)
    members, caps = [], []
    for size, group in blocks.items():
        if float(deltas[size]) >= size:
            continue
        for b in group:
            members.append(np.searchsorted(xs, np.asarray(b, dtype=np.int64)))
            caps.append(math.floor(float(deltas[size])))
    exempt = len(members)
    width = int(np.bincount(np.concatenate(members), minlength=m).max()) if members else 0
    positions = np.full((m, width), exempt, dtype=np.int32)
    fill = np.zeros(m, dtype=np.int64)
    for j, elems in enumerate(members):
        positions[elems, fill[elems]] = j
        fill[elems] += 1
    zero = np.zeros((1, 1), dtype=np.int32)
    return _WalkTable(positions, zero, zero, np.array(caps + [m], dtype=np.int32), exempt)


def sign_walk_sequential(table, rng):
    """The sign walk one point at a time: each point of a random order takes its
    random preferred sign, else the other, else none, whichever first keeps
    every block of its table row within its cap."""
    m = table.positions.shape[0]
    chi = np.zeros(m, dtype=np.int8)
    sums = np.zeros(table.caps.size, dtype=np.int32)
    order = rng.permutation(m)
    pref = rng.integers(0, 2, size=m, dtype=np.int64) * 2 - 1
    for t in order:
        bl = (table.positions[t] >> table.shifts) + table.offsets
        s = sums[bl]
        cap = table.caps[bl]
        sg = int(pref[t])
        if np.all(np.abs(s + sg) <= cap):
            chi[t] = sg
            sums[bl] = s + sg
        elif np.all(np.abs(s - sg) <= cap):
            chi[t] = -sg
            sums[bl] = s - sg
    return chi


def step_maxima_naive(values, n):
    """Largest |window sum| of each step d in [1, n//2], shape (..., n//2).

    Every cyclic window of every (start a, step d) is summed directly: row a
    holds the partial sums v[a], v[a] + v[a + d], ... over one orbit.  No
    prefix extremes and no period argument.
    """
    v = np.asarray(values, dtype=np.int64)
    a = np.arange(n)[:, None]
    out = np.zeros(v.shape[:-1] + (n // 2,), dtype=np.int64)
    for d in range(1, n // 2 + 1):
        rows = v[..., (a + np.arange(n // math.gcd(d, n)) * d) % n]
        out[..., d - 1] = np.abs(np.cumsum(rows, axis=-1)).max(axis=(-2, -1))
    return out
