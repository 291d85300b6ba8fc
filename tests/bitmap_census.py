"""The exhaustive census as a walk over all p^(n^2) matrices, kept only for
the tests: it finds each monomial orbit by marking its matrices in a bitmap,
so it stands apart from the class enumeration in ``cli._orbit_census`` that
it is compared with. It has the same signature and self-checks."""

import itertools

from evoalg import cli


def _unit_vectors(p, n):
    """Every d in (GF(p)^*)^n, lazily and in itertools.product order."""
    units = range(1, p)
    return ((u,) for u in units) if n == 1 else itertools.product(units, repeat=n)


def orbit_census(field, n, tally):
    """One solve per orbit of the monomial group M, whose maps (sigma, d)
    carry A to B[sigma k][sigma j] = d_k a_kj d_j^-2; returns the number of
    nonsingular orbits. Codes are base-p numbers in itertools.product order.
    Raises RuntimeError when orbit-stabilizer fails for a nonsingular class
    or the orbits do not cover every matrix."""
    p, cells = field.p, n * n
    total = p**cells
    place = [p ** (cells - 1 - i) for i in range(cells)]
    perms = list(itertools.permutations(range(n)))
    monomial_order = len(perms) * (p - 1) ** n
    seen = bytearray((total + 7) // 8)

    def decode(code):
        digits = [0] * cells
        for i in range(cells - 1, -1, -1):
            code, digits[i] = divmod(code, p)
        return digits

    classes = covered = 0
    for code in range(total):
        if seen[code >> 3] >> (code & 7) & 1:
            continue
        seen[code >> 3] |= 1 << (code & 7)
        flat = decode(code)
        entry = cli._census_entry(cli._census_algebra(field, n, flat))
        classes += entry is not None
        size = 1
        support = [
            (k, j, flat[k * n + j]) for k in range(n) for j in range(n) if flat[k * n + j]
        ]
        weights = [[place[s[k] * n + s[j]] for k, j, _ in support] for s in perms]
        # the zero matrix (empty support) is its own orbit
        for d in _unit_vectors(p, n) if support else ():
            inv_sq = [pow(x, -2, p) for x in d]
            values = [d[k] * a * inv_sq[j] % p for k, j, a in support]
            for w in weights:
                image = sum(map(int.__mul__, values, w))
                byte, bit = image >> 3, 1 << (image & 7)
                if seen[byte] & bit:
                    continue
                seen[byte] |= bit
                size += 1
        if entry is not None:
            if size * entry[0] != monomial_order:
                raise RuntimeError(f"orbit-stabilizer fails for the class of {flat}")
            tally(entry, size)
        covered += size
    if covered != total:
        raise RuntimeError(f"census orbits cover {covered} of {total} matrices")
    return classes
