"""Exact integer matrix routines on one echelon loop: a column Hermite
factorization, the reduction of a vector against it, and the reduced
echelon form of a lattice read off the two.

A column Hermite factorization a u = h, with u unimodular and h in column
echelon form, answers the three questions a defect matrix a is asked.  A
vector's residue after reduction against h's pivots names its coset of
a's column lattice, so two right-hand sides differ by an image of a
exactly when their residues agree; this residue is a generator's class
key.  The reduction's coefficients c give u c, which a sends to the vector
minus its residue.  The columns of u that h sends to zero are a basis of
a's kernel.  The reduced echelon form of a lattice, which puts that
kernel basis in the one form its lattice has, is read off the same two
routines: factor the matrix of its generators, then reduce each pivot
column against the pivots after it.

Matrices are lists of lists of Python ints, so every computation here is
exact at arbitrary precision.  The sizes that show up in practice are small
(tens of rows, mostly zero), and the factorization is set up once per
diagram, so it keeps its transform sparse.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

# one pivot of a column Hermite factorization: its row, its positive entry,
# the column of h as (row, entry) pairs and the column of u as {index: entry}
Pivot = tuple[int, int, list[tuple[int, int]], dict[int, int]]


def hermite_factorization(a: list[list[int]],
                          n: int) -> tuple[list[Pivot], list[dict[int, int]]]:
    """Column Hermite factorization a u = h of the m x n matrix a, with u
    unimodular and h in column echelon form; n is given so that a may have
    no rows.

    The rows are taken in order.  The columns that hold no pivot yet and
    are nonzero in the row are gcd-reduced into one by remainder steps,
    each dividing by the entry of least magnitude (ties to the earlier
    column), and that column, made positive there, is the row's pivot.
    Returns the pivots in row order and the columns of u whose column of h
    ends at zero, which are a basis of {x : a x = 0}.  Columns of u are
    sparse ({index: nonzero entry}), since a defect matrix's column
    operations touch few of them.
    """
    m = len(a)
    cols = [[row[j] for row in a] for j in range(n)]
    us: list[dict[int, int]] = [{j: 1} for j in range(n)]
    free = list(range(n))
    pivots: list[Pivot] = []
    for i in range(m):
        live = [j for j in free if cols[j][i]]
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][i]))
            base = live[0]
            p = cols[base][i]
            # free columns are zero above row i
            terms = [(r, x) for r, x in enumerate(cols[base]) if x]
            ub = us[base].items()
            for j in live[1:]:
                h, u = cols[j], us[j]
                q = h[i] // p
                for r, x in terms:
                    h[r] -= q * x
                for k, x in ub:
                    y = u.get(k, 0) - q * x
                    if y:
                        u[k] = y
                    else:
                        del u[k]
            live = [j for j in live if cols[j][i]]
        if live:
            j = live[0]
            h, u = cols[j], us[j]
            if h[i] < 0:
                h[:] = [-x for x in h]
                us[j] = u = {k: -x for k, x in u.items()}
            pivots.append((i, h[i], [(r, x) for r, x in enumerate(h) if x], u))
            free.remove(j)
    return pivots, [us[j] for j in free]


def hermite_reduce(pivots: list[Pivot], vec: list[int]) -> list[tuple[int, int]]:
    """Reduce vec in place against the pivots of a ``hermite_factorization``
    a u = h, in row order, each step subtracting the floor quotient at the
    pivot's row times its column of h.  Returns the nonzero quotients c as
    (pivot index, quotient) pairs, so that vec on entry is h c plus vec on
    return.  h is in column echelon form, so the reduced vec is the same
    for every vector of one coset of h's column lattice, which is a's."""
    coeffs = []
    for k, (r, e, terms, _) in enumerate(pivots):
        q = vec[r] // e
        if q:
            for i, x in terms:
                vec[i] -= q * x
            coeffs.append((k, q))
    return coeffs


def hermite_columns(vectors: Iterable[Sequence[int]]) -> list[list[int]]:
    """Reduced column Hermite form of the lattice spanned by the vectors.

    Returns the nonzero columns as new lists, each with positive leading
    (topmost nonzero) entry, echeloned by leading row, and each column's
    entry at every later column's leading row reduced into [0, that
    column's leading entry).  These are the pivot columns of the
    ``hermite_factorization`` of the matrix whose columns are the vectors,
    each reduced against the pivots after it.  Column operations only, so
    the lattice is unchanged, and the reduced form is unique to the
    lattice: any two generating sets of one lattice give the same columns.
    """
    cols = list(vectors)
    if not cols:
        return []
    rows = list(zip(*cols))
    pivots, _ = hermite_factorization(rows, len(cols))
    done = []
    for k, (_, _, terms, _) in enumerate(pivots):
        col = [0] * len(rows)
        for r, x in terms:
            col[r] = x
        hermite_reduce(pivots[k + 1:], col)
        done.append(col)
    return done
