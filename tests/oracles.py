"""Reference implementations kept for the tests only.

A request derives its orbit blocks (``OrbitBlocks``, counted in closed
form) from n, X and its allowances, and the library enforces them through an
orbit-rank table; it sorts only half the steps and mirrors the rest, reads
window maxima off prefix extremes, signs whole runs of the walk order at
once, keys the progression sets by bit words, steps both children of a
branch-and-bound node at once, evaluates the Fourier double sum and T_f
from one pass over the orbit-row window sums, scans complex window sums a
gcd class of steps at a time, and takes the split-sum grid's max |sum|
with one reduction.  These materialise the same objects directly (one sort
per step, a definition-level transform, two independent double-sum routes
and one numpy row sum per m, one step per complex scan, a generate-and-dedupe
progression enumeration, a dense membership tensor packed to bytes, one
child at a time with a gathered vote, max and -min reduced apart) and walk
one point at a time, so the tests can compare the two.
"""

import math

import numpy as np

from zndisc.ap_system import _SCAN_CELLS, _orbit_prefix
from zndisc.engine import _orbit_layout, _WalkTable
from zndisc.exact import _GRID_CELLS_LIMIT, _GRID_CHUNK, LimitExceeded, _digit_sums

_DIRECT_DFT_LIMIT = 4096
_GATHER_CELLS = 1 << 14  # cells per gather of f(a + b*k) in double_sums_reference


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


def orbit_orders_all_steps(n, xs, g):
    """X's indices in orbit order (a, k) for every step d = g*u with
    gcd(u, n/g) = 1, ascending u, one sort per step: row i is the i-th step."""
    xs = np.asarray(xs, dtype=np.int64)
    L = n // g
    a = xs % g
    rows = []
    for u in range(1, L):
        if math.gcd(u, L) == 1:
            k = (xs // g) * pow(u, -1, L) % L
            rows.append(np.lexsort((k, a)))
    return np.array(rows).reshape(len(rows), xs.size)


def walk_table_all_steps(req):
    """The walk table on the engine's slot layout, each step's column filled
    from its own sort (``orbit_orders_all_steps``) and each binding block's
    cap set one row at a time."""
    n, xs = req.n, req.x
    m = int(xs.size)
    shifts = [size.bit_length() - 1 for size in req.blocks]
    layout = list(_orbit_layout(n, xs, shifts))
    exempt = sum(steps * span for _, steps, _, _, span in layout)
    positions = np.full((m, sum(steps for _, steps, _, _, _ in layout)), exempt, dtype=np.int32)
    caps = [np.full((exempt >> s) + 1, m, dtype=np.int32) for s in shifts]
    col = base = 0
    for g, steps, rowoff, cnt, span in layout:
        for i, order in enumerate(orbit_orders_all_steps(n, xs, g)):
            rows = xs[order] % g
            for a in np.flatnonzero(rowoff >= 0):
                first = base + i * span + rowoff[a]
                positions[order[rows == a], col + i] = first + np.arange(cnt[a])
                for scale_caps, size, s in zip(caps, req.blocks, shifts):
                    scale_caps[first >> s : (first >> s) + (cnt[a] >> s)] = math.floor(
                        float(req.deltas[size]))
        col += steps
        base += steps * span
    offsets = np.cumsum([0] + [scale_caps.size for scale_caps in caps[:-1]])
    return _WalkTable(positions, np.array(shifts, dtype=np.int32)[:, None],
                      offsets.astype(np.int32)[:, None], np.concatenate(caps), exempt)


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


def enumerate_aps(ctx):
    """Yield each distinct nonempty progression element set exactly once.

    Deduplication is by sorted element tuple; iteration order is by
    (step, offset, length), first appearance wins.
    """
    n = ctx.n
    seen = set()
    for d in range(n):
        orbit = n // math.gcd(d, n)
        for a in range(n):
            for l in range(1, orbit + 1):
                t = tuple(sorted((a + k * d) % n for k in range(l)))
                if t not in seen:
                    seen.add(t)
                    yield t


def progression_incidence_reference(ctx, min_len=1):
    """Distinct progression sets of size >= min_len as an n x A boolean incidence.

    Every set is a window of some step-d orbit, and steps d and n - d trace
    the same windows, so the windows of steps d in [0, n//2] (d = 0 gives the
    singletons) are built at once per step, packed to bytes and deduplicated
    by ``np.unique``.  Columns follow the packed bytes' order; the column sets
    are those of ``enumerate_aps``, for any n.
    """
    n = ctx.n
    packed = []
    for d in range(n // 2 + 1):
        g = math.gcd(d, n)
        L = n // g
        orbit = (np.arange(g)[:, None] + np.arange(L)[None, :] * d) % n
        # window (start i, length l) holds orbit position k iff (k - i) mod L < l
        rank = (np.arange(L)[None, :] - np.arange(L)[:, None]) % L
        window = rank[:, None, :] < np.arange(1, L + 1)[None, :, None]
        member = np.zeros((g, L * L, n), dtype=bool)
        np.put_along_axis(member, np.broadcast_to(orbit[:, None, :], (g, L * L, L)),
                          window.reshape(1, L * L, L), axis=2)
        packed.append(np.packbits(member.reshape(-1, n), axis=1))
    sets = np.unique(np.concatenate(packed), axis=0)
    sets = np.unpackbits(sets, axis=1, count=n).astype(bool)
    return np.ascontiguousarray(sets[sets.sum(axis=1) >= min_len].T)


def branch_and_bound_reference(inc, bound, witness):
    """DFS over colorings with chi(0) = +1 for one below ``bound`` (max |sum|).

    Optimisation mode returns the least value below the bound (the bound
    itself if none is lower), the nodes explored and the last leaf reached,
    each leaf lowering the bound; witness mode stops at the first leaf.
    """
    n = inc.shape[0]
    step = 2 * inc.astype(np.int16)
    length = inc.sum(axis=0, dtype=np.int16)
    chi = np.ones(n, dtype=np.int8)
    leaf = None
    nodes = 0

    def dfs(x, lo, hi, top, bottom):
        # top = lo.max() and bottom = hi.min(); at a leaf lo = hi = the sums
        nonlocal bound, leaf, nodes
        if x == n:
            bound = max(1, top, -bottom)
            leaf = chi.copy()
            return witness
        if bound <= 1:
            return False
        first = 1
        if not witness and int(np.sign(lo + hi)[inc[x]].sum()) > 0:
            first = -1
        for sg in (first, -first):
            nodes += 1
            chi[x] = sg
            if sg > 0:
                lo2, hi2 = lo + step[x], hi
                top2, bottom2 = int(lo2.max()), bottom
            else:
                lo2, hi2 = lo, hi - step[x]
                top2, bottom2 = top, int(hi2.min())
            if top2 < bound and bottom2 > -bound and dfs(x + 1, lo2, hi2, top2, bottom2):
                return True
        return False

    lo = step[0] - length
    dfs(1, lo, length, int(lo.max()), int(length.min()))
    return bound, nodes, leaf


def dft_direct(f):
    """Definition-level O(n^2) transform, the cross-check for np.fft.fft."""
    arr = np.asarray(f, dtype=np.complex128)
    n = arr.size
    if n > _DIRECT_DFT_LIMIT:
        raise ValueError(f"direct transform capped at n = {_DIRECT_DFT_LIMIT}")
    x = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(x, x) / n)
    return w @ arr


def weighted_lhs_all_m(f):
    """The double sum sum_{a,b} |sum_{k<m} f(a + b*k)|^2 for every m = 1..n at
    once (cumulative inner sums per b)."""
    arr = np.asarray(f, dtype=np.complex128)
    n = arr.size
    a = np.arange(n, dtype=np.int64)[:, None]
    k = np.arange(n, dtype=np.int64)[None, :]
    out = np.zeros(n, dtype=np.float64)
    for b in range(n):
        partial = np.cumsum(arr[(a + b * k) % n], axis=1)
        out += (np.abs(partial) ** 2).sum(axis=0)
    return out


def weighted_lhs_spectral(f, m):
    """The double sum at one m by a spectral route: convolve with the segment
    indicator per b and add the spectral energies."""
    arr = np.asarray(f, dtype=np.complex128)
    n = arr.size
    indicator = np.zeros(n, dtype=np.complex128)
    indicator[(-np.arange(m)) % n] += 1.0
    w = np.abs(np.fft.fft(indicator)) ** 2
    power = np.abs(np.fft.fft(arr)) ** 2
    total = 0.0
    for b in range(n):
        total += float((power * w[(b * np.arange(n)) % n]).sum())
    return total / n


def double_sums_reference(arr, ms):
    """sum_{a,b} |sum_{k<m} f(a + b*k)|^2 for each m in ms, one numpy
    ``table[..., :m].sum(axis=-1)`` per m per chunked (b, a, k) gather."""
    n = arr.size
    width = int(ms.max())
    k = np.arange(width, dtype=np.int64)
    a_rows = min(n, max(1, _GATHER_CELLS // width))
    b_rows = min(n, max(1, _GATHER_CELLS // (a_rows * width)))
    per_b = np.empty((ms.size, n))
    for b0 in range(0, n, b_rows):
        b = np.arange(b0, min(b0 + b_rows, n), dtype=np.int64)[:, None, None]
        square = np.empty((ms.size, b.shape[0], n))  # |row sum|^2 per (m, b, a)
        for a0 in range(0, n, a_rows):
            a = np.arange(a0, min(a0 + a_rows, n), dtype=np.int64)[:, None]
            index = a + b * k
            table = arr[np.remainder(index, n, out=index)]
            del index
            for i, m in enumerate(ms):
                row = np.abs(table[..., :m].sum(axis=-1))
                square[i, :, a0:a0 + a.shape[0]] = np.square(row, out=row)
            del table
        per_b[:, b0:b0 + b.shape[0]] = square.sum(axis=-1)
    return np.cumsum(per_b, axis=1)[:, -1]


def max_progression_sum_per_step(f):
    """``analysis.max_progression_sum`` of complex f one step at a time: each
    step's window sums P[i + l] - P[i] off a sliding view of its doubled
    orbit prefix, a chunk of starts per numpy call."""
    f = np.asarray(f, dtype=np.complex128)
    n = f.shape[0]
    if n == 1:
        return float(abs(f[0]))
    best = 0.0
    for d in range(1, n // 2 + 1):
        P = _orbit_prefix(f, n, d)
        g, L = P.shape[0], P.shape[-1] // 2
        ends = np.lib.stride_tricks.sliding_window_view(P[:, 1:], L, axis=-1)
        chunk = max(1, _SCAN_CELLS // (g * L))
        for i in range(0, L, chunk):
            starts = slice(i, min(i + chunk, L))
            best = max(best, float(np.abs(ends[:, starts] - P[:, starts, None]).max()))
    return best


def split_grid_reference(inc, digits, base=0):
    """``exact._split_grid`` with the max |sum| over the progressions taken
    as max(max sum, -min sum), two reductions per chunk."""
    cells = len(digits) ** inc.shape[0]
    if cells > _GRID_CELLS_LIMIT:
        raise LimitExceeded(f"the search grid needs {cells} cells, past the limit of "
                            f"{_GRID_CELLS_LIMIT}")
    inc = inc.astype(np.int8)
    k = (inc.shape[0] + 1) // 2
    lo = _digit_sums(inc[:k], digits) + base
    hi = _digit_sums(inc[k:], digits)
    grid = np.empty((hi.shape[0], lo.shape[0]), dtype=np.int8)
    rows = max(1, _GRID_CHUNK // lo.size)
    for j in range(0, hi.shape[0], rows):
        t = lo + hi[j:j + rows, None, :]
        np.maximum(t.max(axis=2), -t.min(axis=2), out=grid[j:j + rows])
    return grid
