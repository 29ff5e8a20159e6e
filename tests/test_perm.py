import pytest

from nommon.errors import InvalidInput
from nommon.perm import Perm, extend_injection, fresh_stream


def test_identity_and_swap():
    assert Perm.identity()(3) == 3
    s = Perm.swap(1, 2)
    assert s(1) == 2 and s(2) == 1 and s(0) == 0
    assert Perm.swap(4, 4) == Perm.identity()


def test_compose_order():
    # compose(f, g)(a) = f(g(a))
    f = Perm.swap(0, 1)
    g = Perm.swap(1, 2)
    h = f.compose(g)
    assert h(2) == 0
    assert h(1) == 2
    assert h(0) == 1


def test_non_bijection_rejected():
    with pytest.raises(InvalidInput):
        Perm({0: 1, 2: 1})


def test_moved_and_apply_tuple():
    p = Perm({0: 1, 1: 0})
    assert p.moved == frozenset({0, 1})
    assert p.apply_tuple((0, 1, 5)) == (1, 0, 5)


def test_extend_injection_is_permutation():
    pi = extend_injection({3: 8}, moved_from=[3, 4], avoid={3, 4, 8})
    m = {a: pi(a) for a in range(12)}
    assert sorted(m.values()) == sorted(m.keys())
    assert pi(3) == 8
    assert pi(4) not in {3, 4, 8}


def test_fresh_stream_smallest_first():
    g = fresh_stream({0, 2})
    assert [next(g) for _ in range(3)] == [1, 3, 4]
