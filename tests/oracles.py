"""Dense matrix predicates and kernels that the tests hold the library's
sparse kernels to, and the helpers that only the tests need."""

from fractions import Fraction
from itertools import islice, repeat
from math import lcm
from operator import mul

from octoweyl.cone import DualPoint, is_regular
from octoweyl.errors import BudgetExceeded, InvalidQuiver
from octoweyl.exact import identity, sparse, sparse_mat_vec, transpose
from octoweyl.ktheory import spherical_twist_K
from octoweyl.quiver import EXT, HUB
from octoweyl.weyl import (
    WeylElement,
    _RootLayers,
    reflection_transvection,
    translation_element,
)


def dot(x, y):
    """The dense dot product x . y."""
    return sum(map(mul, x, y))


def is_unit_upper_triangular(a) -> bool:
    """Ones on the diagonal and zeros below it."""
    n = len(a)
    return all(
        a[i][j] == (1 if i == j else 0) for i in range(n) for j in range(i + 1)
    )


def identity_element(lattice) -> WeylElement:
    """The identity of the lattice's Weyl group: no moved rows."""
    return WeylElement(lattice.rank, ())


def determinant(a) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination on the
    dense matrix, pivoting down the diagonal."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sparse_rows(a) -> tuple:
    """The sparse rows of a dense matrix."""
    return tuple(sparse(row) for row in a)


def euler_matrix(q) -> tuple:
    """The dense Euler Gram matrix on simples of a bound quiver:
    delta_vw - arrows(v,w) + relations(v,w)."""
    q.validate()
    n = q.rank
    idx = {v: i for i, v in enumerate(q.vertices)}
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for src, dst in q.arrows:
        m[idx[src]][idx[dst]] -= 1
    for (src, dst), mult in q.relations:
        m[idx[src]][idx[dst]] += mult
    return tuple(tuple(row) for row in m)


def _sign_normalize(v):
    for a in v:
        if a != 0:
            return v if a > 0 else tuple(-x for x in v)
    return v


def integer_kernel(a) -> tuple:
    """Basis of the saturated integer kernel {x : a @ x = 0}.

    Unimodular row reduction is applied to the transpose while tracking the
    transform; transform rows matched to zero rows form a basis of the full
    kernel lattice, so every integer solution is an integer combination of
    the returned vectors and each vector is primitive.  Sorted, each vector
    with a positive leading entry.
    """
    rows = len(a)
    n = len(a[0]) if rows else 0
    b = [list(col) for col in zip(*a)]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivot_row = 0
    for c in range(rows):
        while True:
            live = [r for r in range(pivot_row, n) if b[r][c] != 0]
            if not live:
                break
            best = min(live, key=lambda r: abs(b[r][c]))
            b[pivot_row], b[best] = b[best], b[pivot_row]
            u[pivot_row], u[best] = u[best], u[pivot_row]
            done = True
            for r in range(pivot_row + 1, n):
                if b[r][c] != 0:
                    q = b[r][c] // b[pivot_row][c]
                    b[r] = [x - q * y for x, y in zip(b[r], b[pivot_row])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[pivot_row])]
                    if b[r][c] != 0:
                        done = False
            if done:
                pivot_row += 1
                break
    # Rows at and below pivot_row are the zero rows of the reduced transpose.
    kernel = [_sign_normalize(tuple(u[r])) for r in range(pivot_row, n)]
    return tuple(sorted(kernel))


def radical_basis(cartan) -> tuple:
    """Primitive basis of the radical {x : cartan @ x = 0} of a symmetric
    form, by ``integer_kernel``: the oracle of ``RootLattice.radical``."""
    if cartan != transpose(cartan):
        raise ValueError("radical_basis expects a symmetric matrix")
    return integer_kernel(cartan)


def twist_matrix(lattice, s) -> tuple:
    """Matrix of the twist at s, assembled column by column from its action
    on every unit vector: the oracle of ``ktheory.twist_rows``."""
    cols = [spherical_twist_K(lattice, s, unit) for unit in identity(lattice.rank)]
    return transpose(cols)


def euler_gram(k) -> tuple:
    """The dense Euler Gram matrix <x, y> of a collection's ordered pairs of
    classes, with E y computed once per class."""
    e_classes = [sparse_mat_vec(k.lattice.euler_rows, y) for y in k.classes]
    return tuple(tuple(dot(x, ey) for ey in e_classes) for x in k.classes)


def dense_braid_act(k, move) -> tuple:
    """The dense classes of a move's image: the pair's moved class is the
    negated image of the dense reflection x -> x - (x . C p) p through the
    pivot p, and a shift negates its class.  The oracle of
    ``ktheory.braid_act``, which reads only the supports of the pair."""
    classes = list(k.classes)
    if move[0] == "e":
        i = move[1]
        classes[i - 1] = tuple(-a for a in classes[i - 1])
        return tuple(classes)
    _, i, sign = move
    x, y = classes[i - 1], classes[i]
    pivot, z = (y, x) if sign > 0 else (x, y)
    c = dot(z, [dot(row, pivot) for row in k.lattice.cartan])
    moved = tuple(-(a - c * b) for a, b in zip(z, pivot))
    classes[i - 1 : i + 1] = (y, moved) if sign > 0 else (moved, x)
    return tuple(classes)


def parse_vertex(text: str):
    """The vertex of a label ``1``, ``1*`` or ``(i,j)``, as ``vertex_str``
    writes it."""
    s = text.strip()
    if s in (HUB, EXT):
        return s
    if s.startswith("(") and s.endswith(")"):
        i, j = s[1:-1].split(",")
        return (int(i), int(j))
    raise InvalidQuiver(f"cannot parse vertex label {text!r}")


def draws_below_19(rng, count):
    """The next count values of ``rng.randrange(19)``, drawn as CPython's
    randrange draws them: 5 random bits at a time until they are below 19.
    The reference stream for ``suites.bulk_draws_below_19``."""
    return islice(filter((19).__gt__, map(rng.getrandbits, repeat(5))), count)


def rational_point(re, im) -> DualPoint:
    """The dual point of the rational values re + i*im, as integer rows over
    their least common denominator."""
    re, im = tuple(map(Fraction, re)), tuple(map(Fraction, im))
    d = lcm(*(x.denominator for x in re + im))
    return DualPoint(d, tuple(int(x * d) for x in re), tuple(int(x * d) for x in im))


def rational_values(p: DualPoint) -> tuple:
    """The values of a dual point as exact rationals: (re, im)."""
    return tuple(Fraction(x, p.d) for x in p.re), tuple(Fraction(x, p.d) for x in p.im)


def point_value(p: DualPoint, root) -> tuple:
    """h(root) as an exact (real, imaginary) pair."""
    re, im = rational_values(p)
    return dot(re, root), dot(im, root)


class ReferenceLayers:
    """The reference for ``weyl._RootLayers``: the same layers, ``sizes``,
    ``closed``, ``grow`` and ``probe``, with rounds that apply every
    reflection to every root of the last layer and keep the images not seen
    before, without pairings and without skipping any reflection."""

    def __init__(self, lattice, basis):
        self.gens = [reflection_transvection(lattice, b) for b in basis]
        self.seen = set(basis)
        self.roots = sorted(self.seen)
        self.sizes = [len(self.roots)]
        self.closed = False

    @property
    def depth(self) -> int:
        return len(self.sizes) - 1

    def frontier(self) -> list:
        return self.roots[self.sizes[-2] if self.depth else 0 :]

    def grow(self, cap: int) -> None:
        """Add one round; past cap, raise and leave the layers as they were."""
        seen, roots = self.seen, self.roots
        start = len(roots)
        frontier = self.frontier()
        for g in self.gens:
            for x in frontier:
                y = g.apply(x)
                if y not in seen:
                    seen.add(y)
                    roots.append(y)
                    if len(seen) > cap:
                        seen.difference_update(roots[start:])
                        del roots[start:]
                        raise BudgetExceeded(
                            f"root closure exceeded cap {cap} at depth {self.depth}"
                        )
        if len(roots) == start:
            self.closed = True
        else:
            roots[start:] = sorted(roots[start:])
            self.sizes.append(len(roots))

    def probe(self) -> bool:
        """Whether the next round would add nothing; nothing is stored."""
        return all(g.apply(x) in self.seen for g in self.gens for x in self.frontier())


def generic_window(lattice, depth, cap) -> tuple:
    """The sorted closure of the simple roots after ``depth`` rounds, grown
    by the per-root kernel ``weyl._RootLayers`` run directly, octopus
    lattices included: no kept layers and no star classes.  Past cap it
    raises as ``enumerate_real_roots`` does, at every depth when the simple
    roots alone are more than cap."""
    layers = _RootLayers(lattice, tuple(lattice.basis_vector(v) for v in lattice.vertices))
    if layers.sizes[0] > cap:
        raise BudgetExceeded(f"root closure basis of {layers.sizes[0]} roots exceeds cap {cap}")
    while layers.depth < depth and not layers.closed:
        layers.grow(cap)
    return layers.window(min(depth, layers.depth))


def reference_regularity_monotone(star, points, root_depth, n_bound, cap) -> bool:
    """The ``regularity-monotone`` verdict of the cone suite, scanned
    eagerly: every point at both bounds, each wall hit at the smaller bounds
    then read against the scan at the larger ones."""
    ok = True
    for p in points:
        small = is_regular(star, p, root_depth, n_bound, cap)
        large = is_regular(star, p, root_depth + 2, n_bound + 2, cap)
        if small.status == "on_wall" and large.status == "regular":
            ok = False
    return ok


def reference_window_entries(octo, star_roots, octo_roots, n_bound, finite) -> list:
    """The window entries of ``roots-decomposition``, checked in octopus
    coordinates: the window is filtered by ``delta_coordinate``, each root's
    ``star_part`` is looked up, and the expected window is built back with
    ``from_split``.  The count and set entries are made for a finite star."""
    window = [x for x in octo_roots if abs(octo.delta_coordinate(x)) <= n_bound]
    shifts = range(-n_bound, n_bound + 1)
    in_star = all(octo.star_part(x) in star_roots for x in window)
    out = [dict(check="star-part-membership", window=len(window), holds=in_star)]
    if finite:
        count, expected = len(window), len(star_roots) * len(shifts)
        holds = count == expected
        out.append(dict(check="window-count", count=count, expected=expected, holds=holds))
        expected_window = {octo.from_split(beta + (m,)) for beta in star_roots for m in shifts}
        out.append(dict(check="window-set-equality", holds=set(window) == expected_window))
    return out


def reference_witness_root(octo, v, n: int):
    """e_v + n delta by the parity recipe: an arm slot rides the translation
    at its predecessor (the hub for a first slot), and the hub starts from
    its own simple root (even n) or from e_{1*} (odd n) and rides its own
    translation, which moves it two levels per power."""
    if isinstance(v, tuple):
        i, j = v
        base, carrier, power = octo.basis_vector(v), "1" if j == 1 else (i, j - 1), n
    elif n % 2 == 0:
        base, carrier, power = octo.basis_vector("1"), "1", -n // 2
    else:
        base, carrier, power = octo.basis_vector("1*"), "1", -(n - 1) // 2
    tau = translation_element(octo, carrier)
    step = tau if power >= 0 else tau.inverse()
    out = base
    for _ in range(abs(power)):
        out = step.apply(out)
    return out
