"""Plain-Python oracles for the benchmark's verdicts.

Nothing here imports ``nommon``: every expected answer is computed from
the word, the atoms or the set-theoretic definition directly, so a
wrong answer from the library cannot also hide in its own check.
Words are tuples of atoms (naturals); elements of a carrier with
trivial position groups are ``(orbit, atoms)`` pairs.
"""

import itertools
from fractions import Fraction


def words_upto(n, atoms=(0, 1, 2)):
    """All words of length at most n over the given atoms, shortest first."""
    out = []
    for length in range(n + 1):
        out.extend(itertools.product(atoms, repeat=length))
    return out


def adjacent_repeat(w):
    return any(a == b for a, b in zip(w, w[1:]))


# --- catalog letter maps, evaluated on a word ------------------------------


def letter_map_value(name, w):
    """h(w) for the catalog letter map ``name``, as (tag, atoms).

    Two words get equal values exactly when the library's evaluation
    sends them to the same monoid element; the atoms are its support.
    """
    n = len(w)
    if name == "trivial" or n == 0:
        return ("1", ())
    if name == "first_proj":
        return ("A", (w[0],))
    if name == "last_proj":
        return ("A", (w[-1],))
    if name == "zero_adjoined":
        return ("A", (w[0],)) if n == 1 else ("0", ())
    if name == "barred":
        return ("A", (w[0],)) if n == 1 else ("Abar", (w[0],))
    if name == "cutoff1":
        return ("w", (w[0],))
    if name == "cutoff2":
        return ("w", tuple(w[:2]))
    if name == "pair_zero":
        if n == 1:
            return ("A", (w[0],))
        if n == 2 and w[0] != w[1]:
            return ("AA", tuple(w))
        return ("0", ())
    if name == "l0_recognizer":
        return (("l0", adjacent_repeat(w)), (w[0], w[-1]))
    raise ValueError(f"no oracle for letter map {name!r}")


def recognizer_orbit(name, w):
    """Carrier orbit of h(w) for the recognizers the syntactic workload uses."""
    n = len(w)
    if n == 0:
        return 0
    if name == "l0_recognizer":
        return (1 if w[0] == w[-1] else 3) + adjacent_repeat(w)
    if name == "pair_zero":
        if n == 1:
            return 1
        return 2 if n == 2 and w[0] != w[1] else 3
    if name == "cutoff2":
        if n == 1:
            return 1
        return 2 if w[0] == w[1] else 3
    raise ValueError(f"no orbit oracle for recognizer {name!r}")


LANGUAGES = {
    "first-a": lambda w: bool(w) and w[0] == 0,
    "last-a": lambda w: bool(w) and w[-1] == 0,
    "l0": adjacent_repeat,
    "l2-any": lambda w: len(w) >= 2 and w[0] == w[-1],
    "l2-fixed": lambda w: len(w) >= 2 and w[0] == w[-1] == 0,
}


def bound_atoms(bound, w):
    """s(w) for the named support bounds."""
    if not w:
        return frozenset()
    if bound == "first-letter":
        return frozenset(w[:1])
    if bound == "endpoints":
        return frozenset((w[0], w[-1]))
    raise ValueError(f"no oracle for bound {bound!r}")


def join_is_bounded(name1, name2, bound, words):
    """Is supp <h1, h2>(w) = supp h1(w) | supp h2(w) inside s(w) on all words?

    The catalog supports depend only on the first two and the last
    letter, so words up to length 3 over 3 atoms decide it.
    """
    return all(
        set(letter_map_value(name1, w)[1]) | set(letter_map_value(name2, w)[1])
        <= bound_atoms(bound, w)
        for w in words
    )


def partition(values):
    """Class index of each position, numbered by first occurrence."""
    index = {}
    return [index.setdefault(v, len(index)) for v in values]


def first_letter_distance(v, w):
    """d_s(v, w) for the first-letter bound over the exhaustive(2, 1) scope.

    The scope's monoids with two orbits are Z/2, {1, 0}, and the two
    projections 1 + A; under the first-letter bound only the first-letter
    projection survives, so two orbits separate v and w exactly when the
    first letters or the length parities differ.
    """
    if v[:1] != w[:1] or len(v) % 2 != len(w) % 2:
        return Fraction(1, 4)
    return Fraction(0)


# --- finitely supported subsets, by definition -----------------------------


def same_s_orbit(x, e, support):
    """Does a permutation fixing ``support`` send e to x?

    Valid for orbits with trivial position groups, whose elements are
    injective atom tuples: such a permutation exists iff the two tuples
    agree at every position where either holds an atom of the support.
    """
    return x[0] == e[0] and all(
        a == b for a, b in zip(x[1], e[1]) if a in support or b in support
    )


def subset_member(x, support, elements):
    """x lies in the union of the S-orbits of the given elements."""
    return any(same_s_orbit(x, e, support) for e in elements)


def probe_points(dims, pool):
    """Every element of a trivial-group carrier with atoms from the pool."""
    return [
        (orbit, t)
        for orbit, d in enumerate(dims)
        for t in itertools.permutations(pool, d)
    ]
