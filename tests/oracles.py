"""Slow independent routes kept as test oracles for the package's fast ones."""

from __future__ import annotations

from typing import Sequence


def snf(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Smith normal form: elementary divisors d_1 | d_2 | ..., zeros trailing.

    The independent route to the lattice index, which the package takes from
    determinants and the Hermite normal form.
    """
    a = [list(row) for row in rows]
    nr, nc = len(a), len(a[0])
    n = min(nr, nc)
    k = 0
    while k < n:
        piv = None
        for i in range(k, nr):
            for j in range(k, nc):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
        dirty = False
        for i in range(k + 1, nr):
            q = a[i][k] // a[k][k]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            if a[i][k] != 0:
                dirty = True
        for j in range(k + 1, nc):
            q = a[k][j] // a[k][k]
            if q:
                for row in a:
                    row[j] -= q * row[k]
            if a[k][j] != 0:
                dirty = True
        if dirty:
            continue
        offender = None
        for i in range(k + 1, nr):
            for j in range(k + 1, nc):
                if a[i][j] % a[k][k] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
            continue
        k += 1
    diag = [abs(a[i][i]) for i in range(k)] + [0] * (n - k)
    return tuple(diag)
