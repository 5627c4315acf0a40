"""The symmetries of the box that leave an operator invariant, and the
blocks of the p = 2 dense work under them.

An operator from assemble has the coefficients mu[x] mu[y] J(offset) with
J radial, so a mirror of the lattice, or on a square lattice the swap of
its axes, that leaves grid.mu and grid.klass unchanged maps its edge list
onto itself. Every matrix that commutes with such a group G splits into
one block per irreducible representation (Bossavit, Comput. Methods Appl.
Mech. Engrg. 56, 1986).

The coordinate mirrors kept form the abelian group K, each along an axis
with an even node count so that every orbit has |K| nodes; each character
chi of K is a sector. In the orthonormal basis e_a^chi = |K|^(-1/2)
sum_k chi(k) e_(k a) over the orbit representatives a, the block of a
matrix L is L_chi[a, b] = sum_k chi(k) L[a, k b]: read off the rows of L
at the representatives, with no product of sparse matrices.

On a square whose mu and klass are unchanged by the transpose sigma, G is
the dihedral group of order 8, K and sigma K. sigma maps the
representatives (a corner quarter of the lattice) onto themselves and
swaps the two sectors odd under one mirror and even under the other, so
those share one block: the coefficients of the second are those of the
first for the transposed vector, and every product, factor and solve takes
that block with two columns. The two sectors that sigma maps onto
themselves split once more, into a sigma-even and a sigma-odd block over
the sigma-orbits of the representatives: a pair {a, sigma a} gives
(e_a +- e_(sigma a)) / sqrt(2), a representative on the diagonal e_a in
the even block only. Each basis is orthonormal and the measures are
constant on orbits, so the block of M is diag(mu) at the representatives
that index the block's rows.

The blocks of L_II, the Schur complement S and M + dt S are 1/|K| or
1/|G| the size of the whole, and the vector folds between the two bases
cost O(n). Operators that assemble did not build (fixtures pinned from a
dense kernel matrix) have G = {e}: one block, the matrix itself, through
the same code.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


# the weight of each end of a sigma pair in its even and odd basis vectors
_HALF = np.sqrt(0.5)


@dataclass(frozen=True)
class Orbits:
    """The orbits of one node class (strip or interior) under K, in the
    positions of the class's nodes in ascending node order, and sigma on
    them.

    table : (|K|, m) table[k, a] is the position of the image k a of the
        class's a-th representative; table[0] lists the representatives.
    reps : (m,) global node numbers of the representatives.
    slot, elem : (n,) for each node x of the class the representative a
        and the group element k with x = k a; slot is -1 off the class.
    transpose : (n_C,) the position of sigma x for each position x, and
        swap : (m,) the representative sigma a for each representative a;
        both the identity when sigma is not kept.
    pair : (p,) the representatives a < sigma a of the sigma pairs, empty
        when sigma is not kept.
    diag : representatives fixed by sigma, all of them when it is not kept.
    """

    table: np.ndarray
    reps: np.ndarray
    slot: np.ndarray
    elem: np.ndarray
    transpose: np.ndarray
    swap: np.ndarray
    pair: np.ndarray
    diag: np.ndarray

    @property
    def size(self):
        """The number of orbits under K."""
        return self.table.shape[1]

    @cached_property
    def partner(self):
        """(p,) the images sigma a of the pair representatives."""
        return self.swap[self.pair]

    @cached_property
    def rank(self):
        """(m,) the place of each representative in the order pair, partner,
        diag, in which the blocks that sigma splits are folded."""
        return np.argsort(np.concatenate((self.pair, self.partner, self.diag)))

    @cached_property
    def ranked(self):
        """The indices of fold and unfold when sigma is kept: the table in
        that order (the product with the characters takes each column on
        its own), where each of its entries goes back to, and the shared
        block in the characters' coefficients, (m, 2) and back (2, m)."""
        m, order = self.size, np.argsort(self.rank)
        table = self.table.take(order, axis=1)
        return (table, np.argsort(table, axis=None),
                np.column_stack((m + self.rank, 2 * m + self.rank[self.swap])),
                np.stack((2 * order, 2 * self.swap[order] + 1)))


class Block(NamedTuple):
    """One block of the p = 2 dense work: the character of K it is folded
    with (a row of Sectors.signs) and its sigma parity (+1 even, -1 odd, 0
    for no split)."""

    char: int
    parity: int


@dataclass(frozen=True)
class Sectors:
    """The symmetry group G of one operator and its blocks.

    signs : (|K|, |K|) the characters of the mirrors K, signs[c, k] =
        chi_c(k) = +-1 for the group element k (a bit mask of the kept
        mirrors) and the character c (a bit mask too), the trivial one
        first. Symmetric.
    strip, interior : the Orbits of the two node classes.
    blocks : the Block list, the trivial one first. Without sigma, one per
        character; with it, the sigma-even and sigma-odd blocks of the
        characters 0 and 3, each odd block right after its even one, and
        the block of character 1, which sigma shares with character 3 - 1 =
        2, the two mixed characters swapping the bits of the two mirrors.
    """

    signs: np.ndarray
    strip: Orbits
    interior: Orbits
    blocks: tuple

    @cached_property
    def split(self):
        """Whether sigma is kept."""
        return any(blk.parity for blk in self.blocks)

    @property
    def order(self):
        """|G|: the number of nodes in a generic orbit."""
        return self.signs.shape[0] * (2 if self.split else 1)

    def copies(self, blk):
        """The number of sectors blk serves: 2 for the block sigma shares."""
        return 2 if self.split and not blk.parity else 1

    def block_reps(self, orbits):
        """Per block, the global node numbers of the representatives that
        index its rows: the measures on them are the block of M."""
        out = []
        for blk in self.blocks:
            rows = orbits.reps
            if blk.parity:
                rows = rows[np.concatenate((orbits.pair, orbits.diag))
                            if blk.parity > 0 else orbits.pair]
            out.append(rows)
        return out

    def fold(self, vals, orbits):
        """Per block, the coefficients of the values on one class: sum_k
        chi(k) vals[k a] over K, then split by sigma. They are |K|^(1/2)
        times those in the orthonormal basis; the shared block's are an
        (m, 2) array, the second column those of the transpose of vals."""
        if not self.split:
            return list(self.signs @ vals[orbits.table])
        table, _, shared, _ = orbits.ranked
        p = orbits.pair.shape[0]
        coef = self.signs @ vals[table]
        # per split character its odd block, then its even one: pairs, diag
        out = np.empty((2, orbits.size))
        np.subtract(coef[::3, :p], coef[::3, p:2 * p], out=out[:, :p])
        np.add(coef[::3, :p], coef[::3, p:2 * p], out=out[:, p:2 * p])
        out[:, :2 * p] *= _HALF
        out[:, 2 * p:] = coef[::3, 2 * p:]
        return [out[0, p:], out[0, :p], coef.take(shared), out[1, p:], out[1, :p]]

    def unfold(self, parts, orbits):
        """The class values whose fold is parts: the inverse of fold."""
        if not self.split:
            out = np.empty(orbits.table.size)
            out[orbits.table] = (self.signs @ np.stack(parts)) / self.signs.shape[0]
            return out
        _, back, _, shared = orbits.ranked
        m, p = orbits.size, orbits.pair.shape[0]
        even = np.concatenate(parts[::3]).reshape(2, m - p)
        odd = np.concatenate(parts[1::3]).reshape(2, p)
        odd *= _HALF
        # as if summed onto zeros, the even spread and then the odd one: -0 gives +0
        half = even[:, :p] * _HALF
        half += 0.0
        coef = np.empty((4, m))
        np.add(half, odd, out=coef[::3, :p])
        np.subtract(half, odd, out=coef[::3, p:2 * p])
        np.add(even[:, p:], 0.0, out=coef[::3, 2 * p:])
        coef[1:3] = parts[2].take(shared)
        return ((self.signs @ coef) / self.signs.shape[0]).take(back)

    def basis(self, j, coef, orbits):
        """(n_C, r) the class vectors with the coefficients coef (m_j, r) in
        the orthonormal basis of block j; for the shared block, of its first
        sector. The vectors of its second sector are these transposed,
        [orbits.transpose]."""
        blk, table = self.blocks[j], orbits.table
        if blk.parity:  # spread over pair, partner and diag
            p = orbits.pair.shape[0]
            half = coef[:p] * _HALF
            diag = coef[p:] if blk.parity > 0 else np.zeros((orbits.diag.shape[0],) + coef.shape[1:])
            coef, table = np.concatenate((half, blk.parity * half, diag)), orbits.ranked[0]
        out = np.empty((orbits.table.size, coef.shape[1]))
        out[table] = np.multiply.outer(self.signs[blk.char] / np.sqrt(self.signs.shape[0]), coef)
        return out

    def fold_rows(self, rows, row_orbits, col_orbits):
        """The blocks Q_j^T B Q_j of B = L[R, C], the Laplacian of the
        coefficients cut to the classes R of row_orbits and C of col_orbits,
        from the rows kernels.rep_rows gives out of R: minus the coefficients of the
        edges into C and, when R is C, the row sums on the diagonal. Each
        character's block is one bincount, B_chi[a, b] = sum_k chi(k)
        B[a, k b], of the row sum first (the column a leads its orbit) and
        then the columns k b in one order of k for every b (each mirror
        takes the representatives' corner of the lattice to higher node
        numbers, the first axis's past the second's), split by sigma
        (_halves). Yields one Fortran-ordered B_chi^T per Block: for R = C
        B_chi, exactly symmetric, as _halves keeps it; for the strip rows
        and the interior columns L_IS^chi, as L is symmetric and invariant."""
        row, col, coef = rows
        m_r, m_c = row_orbits.size, col_orbits.size
        keep = col_orbits.slot[col] >= 0
        row, col, data = row[keep], col[keep], np.negative(coef[keep])
        if row_orbits is col_orbits:
            row = np.concatenate((np.arange(m_r), row))
            col = np.concatenate((row_orbits.reps, col))
            data = np.concatenate((np.bincount(rows[0], weights=coef, minlength=m_r), data))
        slot, elem = col_orbits.slot[col], col_orbits.elem[col]
        del rows, coef, keep, col
        # the block is written transposed, so that its transpose is Fortran-ordered
        flat = row * m_c + slot
        # the characters that sigma splits are written in the order pair,
        # partner, diag on both sides, so that _halves reads slices
        by_rank = (row_orbits.rank[row] * m_c + col_orbits.rank[slot]
                   if self.split else None)
        del row, slot
        for blk in self.blocks:
            if blk.parity < 0:
                continue  # yielded with the even block of its character
            weights = data
            if blk.char:  # the trivial character is 1 at every element
                weights = self.signs[blk.char][elem]
                weights *= data
            # bincount of no entries gives integers, even with weights
            out = np.bincount(by_rank if blk.parity else flat, weights=weights,
                              minlength=m_r * m_c)
            del weights
            out = out.astype(float, copy=False).reshape(m_r, m_c).T
            # rebound, so that a split character's whole block is freed
            # before its halves are handed out
            out = (_halves(out, col_orbits.pair.shape[0], row_orbits.pair.shape[0])
                   if blk.parity else (out,))
            yield from out


def _halves(block, p, q):
    """The sigma-even and sigma-odd blocks, both Fortran-ordered, of a dense
    block whose rows are p pairs, their p partners and the diagonal, and
    whose columns are q pairs, their partners and the diagonal. The even
    block's entry at two pairs is ((B[a, b] + B[sa, sb]) + (B[a, sb] +
    B[sa, b])) / 2 with s for sigma, whose transpose sums the same two pairs
    of terms, so the halves of a symmetric block are exactly symmetric."""
    same = block[:p, :q] + block[p:2 * p, q:2 * q]
    cross = block[:p, q:2 * q] + block[p:2 * p, :q]
    even = np.empty((block.shape[0] - p, block.shape[1] - q), order="F")
    np.add(same, cross, out=even[:p, :q])
    even[:p, :q] *= 0.5
    np.add(block[:p, 2 * q:], block[p:2 * p, 2 * q:], out=even[:p, q:])
    even[:p, q:] *= _HALF
    np.add(block[2 * p:, :q], block[2 * p:, q:2 * q], out=even[p:, :q])
    even[p:, :q] *= _HALF
    even[p:, q:] = block[2 * p:, 2 * q:]
    odd = np.subtract(same, cross, out=np.empty((p, q), order="F"))
    odd *= 0.5
    return even, odd


def _class_orbits(n, class_idx, is_rep, perms, sigma):
    pos = np.full(n, -1)
    pos[class_idx] = np.arange(class_idx.shape[0])
    reps = class_idx[is_rep[class_idx]]
    images = np.stack([perm[reps] for perm in perms])
    table = pos[images]
    slot = np.full(n, -1)
    slot[images] = np.arange(reps.shape[0])
    elem = np.zeros(n, dtype=np.int8)
    elem[images] = np.arange(len(perms))[:, None]
    swap = slot[sigma[reps]]
    pair = np.flatnonzero(swap > np.arange(reps.shape[0]))
    diag = np.flatnonzero(swap == np.arange(reps.shape[0]))
    return Orbits(table=table, reps=reps, slot=slot, elem=elem,
                  transpose=pos[sigma[class_idx]], swap=swap, pair=pair, diag=diag)


def _invariant(grid, perm):
    return np.array_equal(grid.mu[perm], grid.mu) and np.array_equal(grid.klass[perm],
                                                                      grid.klass)


def sectors(op):
    """The sectors of op, worked out once (by assemble) and cached on it.

    K holds the mirror i -> m - 1 - i of each lattice axis whose node count
    m is even and under which grid.mu and grid.klass are unchanged; sigma
    is kept when both axis mirrors are, the two counts are equal and mu and
    klass are unchanged by the transpose. Each is an O(n) check. An
    operator that assemble did not build has G = {e}."""
    if "sectors" in op._cache:
        return op._cache["sectors"]
    grid = op.grid
    node = np.arange(grid.n)
    perms, is_rep, signs = [node], np.ones(grid.n, dtype=bool), np.ones((1, 1))
    sigma = node
    if op.lattice is not None:
        index = node.reshape(op.lattice)
        for axis, m in enumerate(op.lattice):
            mirror = np.flip(index, axis).ravel()
            if m % 2 or not _invariant(grid, mirror):
                continue
            is_rep &= (np.indices(op.lattice)[axis] < m // 2).ravel()
            # the new mirror is the next bit of k: its elements follow the
            # old ones, and a character takes the sign -1 on it or not
            perms += [perm[mirror] for perm in perms]
            signs = np.block([[signs, signs], [signs, -signs]])
        transpose = index.T.ravel()
        if len(perms) == 4 and op.lattice[0] == op.lattice[1] and _invariant(grid, transpose):
            sigma = transpose
    if sigma is node:
        blocks = tuple(Block(c, 0) for c in range(len(perms)))
    else:
        blocks = (Block(0, 1), Block(0, -1), Block(1, 0), Block(3, 1), Block(3, -1))
    sec = Sectors(signs=signs, blocks=blocks,
                  strip=_class_orbits(grid.n, op.strip_idx, is_rep, perms, sigma),
                  interior=_class_orbits(grid.n, op.interior_idx, is_rep, perms, sigma))
    op._cache["sectors"] = sec
    return sec
