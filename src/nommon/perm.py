"""Finite permutations of atoms.

Atoms are plain naturals. Their numeric order is only ever used for
canonical forms and tie-breaking, never for semantics.
"""

from nommon.errors import InvalidInput


class Perm:
    """A finite permutation of atoms: identity outside its stored domain."""

    __slots__ = ("_map", "_hash")

    def __init__(self, mapping):
        m = {a: b for a, b in mapping.items() if a != b}
        if set(m.keys()) != set(m.values()):
            raise InvalidInput(f"not a bijection on its domain: {mapping}")
        self._map = m
        self._hash = hash(frozenset(m.items()))

    @staticmethod
    def identity():
        return Perm({})

    @staticmethod
    def swap(a, b):
        """The transposition (a b)."""
        if a == b:
            return Perm({})
        return Perm({a: b, b: a})

    def __call__(self, atom):
        return self._map.get(atom, atom)

    def apply_tuple(self, atoms):
        return tuple(self._map.get(a, a) for a in atoms)

    @property
    def moved(self):
        """The atoms this permutation moves."""
        return frozenset(self._map)

    def compose(self, other):
        """self after other: (self.compose(other))(a) = self(other(a))."""
        atoms = self.moved | other.moved
        return Perm({a: self(other(a)) for a in atoms})

    def __eq__(self, other):
        return isinstance(other, Perm) and self._map == other._map

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self._map:
            return "Perm(id)"
        body = " ".join(f"{a}->{b}" for a, b in sorted(self._map.items()))
        return f"Perm({body})"


def extend_injection(mapping, moved_from, avoid):
    """Extend an injective atom mapping to a genuine finite permutation.

    ``mapping`` sends some atoms injectively to targets. Atoms in
    ``moved_from`` that have no image are sent to fresh atoms outside
    ``avoid`` so that the result is a bijection.
    """
    m = dict(mapping)
    used = set(m.values())
    taken = set(avoid) | used | set(m.keys()) | set(moved_from)
    fresh = fresh_stream(taken)
    for a in moved_from:
        if a not in m:
            nxt = next(fresh)
            m[a] = nxt
            used.add(nxt)
    # close into a permutation: targets lacking a preimage cycle back
    sources = set(m.keys())
    targets = set(m.values())
    dangling = list(targets - sources)
    missing = list(sources - targets)
    for a, b in zip(dangling, missing):
        m[a] = b
    return Perm(m)


def fresh_stream(avoid):
    """Yields naturals not contained in ``avoid``, smallest first."""
    avoid = set(avoid)
    a = 0
    while True:
        if a not in avoid:
            yield a
        a += 1
