"""Canonicalization kernel: the two tuple routines every orbit
computation reduces to. Elements store the least tuple of their coset
under the orbit's position group (``min_coset``); position groups and
S-orbit keys permute tuples by position (``apply_positions``).
"""

# There is no compiled kernel; the flag stays because perfbench/ prints it.
USING_COMPILED = False


def min_coset(t, perms):
    """Lexicographically least tuple among { (t[p[0]], ..., t[p[n-1]]) : p in perms }."""
    best = t
    for p in perms:
        cand = tuple(t[i] for i in p)
        if cand < best:
            best = cand
    return best


def apply_positions(t, p):
    """Permute tuple positions: result[i] = t[p[i]]."""
    return tuple(t[i] for i in p)
