"""A reference for ``symbolic.bareiss``: the same elimination on zpolys, term by term.

Fraction-free (Bareiss) elimination over Z[t] of columns taken in order, with
every product and exact quotient a ``zpoly_*`` loop over coefficient lists and
the pivot of each step the shortest remaining entry.  ``columns`` may be any
iterable and is consumed lazily: elimination stops at the first column that
depends on the ones before it.  The return value is ``bareiss``'s
``(det, relation)``; a relation may differ from ``bareiss``'s by a factor in
Q(t) where the two choose other pivot rows, and the determinant of a square
matrix is the same.
"""

from expperiods.symbolic import zpoly_exact_div, zpoly_mul, zpoly_sub


def reference_bareiss(columns):
    rows = []  # pivot row of each step
    cols = []  # each column as it stood when its own pivot was chosen
    for col in columns:
        col = list(col)
        rest = list(range(len(col)))
        prev = [1]
        for p, e in zip(rows, cols):
            piv, xp = e[p], col[p]
            rest.remove(p)
            for i in rest:
                col[i] = zpoly_exact_div(
                    zpoly_sub(zpoly_mul(piv, col[i]), zpoly_mul(e[i], xp)), prev
                )
            prev = piv
        live = [i for i in rest if col[i]]
        if live:
            rows.append(min(live, key=lambda i: len(col[i])))
            cols.append(col)
            continue
        # Dependent: solve the triangular system on the pivot rows, scaled by
        # the last pivot so that every unknown is a Cramer minor.
        m = len(rows)
        y = [None] * m
        for s in range(m - 1, -1, -1):
            p = rows[s]
            acc = zpoly_mul(prev, col[p])
            for j in range(s + 1, m):
                acc = zpoly_sub(acc, zpoly_mul(cols[j][p], y[j]))
            y[s] = zpoly_exact_div(acc, cols[s][p])
        return [], y + [[-c for c in prev]]
    if not rows:
        return [1], None
    inversions = sum(a > b for i, a in enumerate(rows) for b in rows[i + 1:])
    det = cols[-1][rows[-1]]
    return (det if inversions % 2 == 0 else [-c for c in det]), None
