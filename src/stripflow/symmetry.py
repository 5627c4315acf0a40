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
matrix L is L_chi[a, b] = sum_k chi(k) L[a, k b]. For the Laplacian of an
assembled operator, off its diagonal, that is -mu_a mu_b sum_k chi(k)
J(k b - a), read straight off the stencil's J table with no row written
(Sectors.fold_laplacian): the representatives are a few rectangles of the
lattice, and along one axis the images of b under the identity and the
mirror are Toeplitz and Hankel in the two rectangles' coordinates, so each
character's block is two sums of strided views of the table.

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
cost O(n). One seam carries every block product and solve: a March
folds the values once, keeps each state as the coefficients of each
block's live columns, the columns not exactly 0, steps those columns
block by block and unfolds the states asked for once at the end.
The linear extension and a lone implicit step are marches of one step, a
cho_solve per block; a p = 2 run is a march of all its steps. Operators that
assemble did not build (fixtures pinned from a dense kernel matrix) have
G = {e}: one block, the matrix itself, whose Laplacian blocks are cuts of
their dense Laplacian.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import EXCLUDE_STRIP_STRIP, _rectangles, _table, laplacian_dense

# the weight of each end of a sigma pair in its even and odd basis vectors
_HALF = np.sqrt(0.5)

# the states March.unfold unfolds at a time
_UNFOLD_STATES = 4


@dataclass(frozen=True)
class Orbits:
    """The orbits of one node class (strip or interior) under K, in the
    positions of the class's nodes in ascending node order, and sigma on
    their representatives; Sectors.fold and its inverse Sectors.unfold
    carry every p = 2 value, state or mode between the two bases with them.

    table : (|K|, m) table[k, a] is the position of the image k a of the
        class's a-th representative; table[0] lists the representatives.
    reps : (m,) global node numbers of the representatives.
    swap : (m,) the representative sigma a for each representative a, the
        identity when sigma is not kept.
    pair : (p,) the representatives a < sigma a of the sigma pairs, empty
        when sigma is not kept.
    diag : representatives fixed by sigma, all of them when it is not kept.
    rects : the representatives as rectangles of the lattice
        (kernels._rectangles), empty for an operator without one.
    """

    table: np.ndarray
    reps: np.ndarray
    swap: np.ndarray
    pair: np.ndarray
    diag: np.ndarray
    rects: tuple

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
    def order(self):
        """(m,) the representatives in the order pair, partner, diag."""
        return np.argsort(self.rank)

    @cached_property
    def ranked(self):
        """The indices of fold and unfold when sigma is kept: the table in
        that order (the product with the characters takes each column on
        its own), where each of its entries goes back to, and the shared
        block in the characters' coefficients, (m, 2) and back (2, m)."""
        m, order = self.size, self.order
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
    axes : the lattice axis of each kept mirror, in the order of the bits.
    blocks : the Block list, the trivial one first. Without sigma, one per
        character; with it, the sigma-even and sigma-odd blocks of the
        characters 0 and 3, each odd block right after its even one, and
        the block of character 1, which sigma shares with character 3 - 1 =
        2, the two mixed characters swapping the bits of the two mirrors.
    """

    signs: np.ndarray
    strip: Orbits
    interior: Orbits
    axes: tuple
    blocks: tuple

    @cached_property
    def split(self):
        """Whether sigma is kept."""
        return any(blk.parity for blk in self.blocks)

    @cached_property
    def constants(self):
        """The coefficients of the strip values 1 in the trivial block, the
        one block that holds the constants."""
        return self.fold(np.ones(self.strip.table.size), self.strip)[0]

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
        """The class values whose fold is parts: the inverse of fold. Parts
        with one more trailing axis, of as many states, unfold to values
        that carry it too."""
        tail = parts[0].shape[1:]
        if not self.split:
            out = np.empty((orbits.table.size,) + tail)
            out[orbits.table] = _mix(self.signs, np.stack(parts)) / self.signs.shape[0]
            return out
        _, back, _, shared = orbits.ranked
        m, p = orbits.size, orbits.pair.shape[0]
        coef = np.empty((4, m) + tail)
        for row, even, odd in ((coef[0], parts[0], parts[1]), (coef[3], parts[3], parts[4])):
            # as if summed onto zeros, the even spread and then the odd one: -0 gives +0
            odd = odd * _HALF
            half = np.multiply(even[:p], _HALF, out=row[p:2 * p])
            half += 0.0
            np.add(half, odd, out=row[:p])
            np.subtract(half, odd, out=half)
            np.add(even[p:], 0.0, out=row[2 * p:])
        # clip mode: the indices are in range, and so out is written unbuffered
        np.take(parts[2].reshape((2 * m,) + tail), shared, axis=0, out=coef[1:3], mode="clip")
        coef = _mix(self.signs, coef)
        coef /= self.signs.shape[0]
        return coef.reshape((4 * m,) + tail).take(back, axis=0)

    def diagonal_only(self, op, orbits):
        """Whether L[C, C] on the class C of orbits folds to its diagonal
        (degrees) alone: L_SS in exclude mode, on a lattice."""
        return (op.lattice is not None and orbits is self.strip
                and op.edge_mode == EXCLUDE_STRIP_STRIP)

    def degrees(self, op, orbits):
        """Per block, the row sums mu_a deg_active[a] of the Laplacian at the
        representatives that index its rows: its diagonal, which is the
        whole of L_SS in exclude mode."""
        return [op.grid.mu[rows] * op.deg_active[rows] for rows in self.block_reps(orbits)]

    def fold_laplacian(self, op, row_orbits, col_orbits):
        """The blocks Q_j^T B Q_j of B = L[R, C], the Laplacian of the
        coefficients cut to the classes R of row_orbits and C of
        col_orbits: one Fortran-ordered array per Block, exactly symmetric
        when R is C. Off the diagonal, B_chi[a, b] = -mu_a mu_b sum_k chi(k)
        J(k b - a), the measures being constant on orbits: for each
        character the sum of the J table over K (_table_fold), in the
        representatives' order, with the C side as its rows, the one
        full-size array each character holds. Split by sigma, those rows
        are written in pair, partner, diag order, and each half gathers its
        columns from them (_halves). Then each
        block is scaled by -mu_a mu_b, one product of the two measures per
        entry, so that the transpose of a symmetric block takes the same
        numbers. When R is C its row sums (degrees) go on the diagonal. In
        exclude mode L_SS is that diagonal alone. An operator without a
        lattice (G = {e}) takes the cut of its dense Laplacian."""
        if op.lattice is None:
            cut = laplacian_dense(op)[np.ix_(row_orbits.reps, col_orbits.reps)]
            yield np.asfortranarray(cut)
            return
        mu, same = op.grid.mu, row_orbits is col_orbits
        rows, cols = self.block_reps(row_orbits), self.block_reps(col_orbits)
        diags = self.degrees(op, row_orbits) if same else None
        couple = not (same and self.diagonal_only(op, row_orbits))
        j = 0
        for blk in self.blocks:
            if blk.parity < 0:
                continue  # yielded with the even block of its character
            if not couple:
                outs = [np.zeros((r.shape[0],) * 2, order="F") for r in rows[j:j + 1 + blk.parity]]
            else:
                signs = [0] * len(op.lattice)
                for bit, axis in enumerate(self.axes):
                    signs[axis] = -1 if blk.char >> bit & 1 else 1
                # written with the rows C, so that its transpose is
                # Fortran-ordered; split by sigma, in pair, partner, diag order
                fold = _table_fold(_table(op), op.lattice, col_orbits, row_orbits, signs,
                                   col_orbits.rank if blk.parity else None)
                if blk.parity:
                    outs = _halves(fold, row_orbits, col_orbits.pair.shape[0])
                else:
                    outs = [fold.T]
                del fold
            for out in outs:
                if couple:
                    _scale(out, -mu[rows[j]], mu[cols[j]])
                if same:
                    out[np.diag_indices_from(out)] += diags[j]
                j += 1
            # each block is dropped here once yielded, so that what the
            # caller solves in its place goes with the caller's last reference
            del out
            while outs:
                yield outs.pop(0)


class March:
    """The class values vals of orbits stepped in the sector basis of sec,
    with room for steps more states: folded once (Sectors.fold), every
    state kept as its coefficients, to be stepped block by block and
    unfolded once at the end. Per block j only the live columns of the fold
    are kept and stepped, those with a coefficient that is not exactly 0
    (the shared block's second column holds its second sector): a linear
    step keeps a zero column zero, so the others unfold as zeros. The gap
    mode, say, is one column of one block.

    count : the number of states, the folded values the first.
    live : {j: (columns, states)}, the r live column indices of block j and
        a (steps + 1, r, m_j) array whose row k holds their coefficients in
        state k, one contiguous line per column; the first count rows are
        filled.
    """

    def __init__(self, sec, vals, orbits, steps):
        self.sec, self.orbits, self.count = sec, orbits, 1
        parts = sec.fold(vals, orbits)
        self.shapes = [part.shape for part in parts]
        self.live = {}
        for j, part in enumerate(parts):
            # (m_j, r), m_j = 0 for a block with no representative
            part = part.reshape(part.shape[0], math.prod(part.shape[1:]))
            cols = np.flatnonzero(np.any(part != 0.0, axis=0))
            if cols.shape[0]:
                states = np.empty((steps + 1, cols.shape[0], part.shape[0]))
                states[0] = part[:, cols].T
                self.live[j] = (cols, states)

    def advance(self, step):
        """One more state: step(j, X) of each live block j's last row X, an
        (r, m_j) array. When a step raises, count, and so every state, is
        unchanged."""
        for j, (_, states) in self.live.items():
            states[self.count] = step(j, states[self.count - 1])
        self.count += 1

    def unfold(self, apply=None, start=0):
        """(count - start, n_C) the class values of the states from start on,
        each unfolded once, _UNFOLD_STATES states at a time so that the
        unfold's temporaries stay a fraction of the result; with apply,
        those whose coefficients are apply(j, X) for the (count - start, r,
        m_j) rows X of block j, one call per block, linear so that a dead
        column still maps to zeros."""
        live = {j: (cols, states[start:self.count] if apply is None
                    else apply(j, states[start:self.count]))
                for j, (cols, states) in self.live.items()}
        out = np.empty((self.count - start, self.orbits.table.size))
        for lo in range(0, out.shape[0], _UNFOLD_STATES):
            hi = min(lo + _UNFOLD_STATES, out.shape[0])
            parts = []
            for j, shape in enumerate(self.shapes):
                part = np.zeros(shape + (hi - lo,))
                if j in live:
                    cols, coef = live[j]
                    part.reshape(shape[0], -1, hi - lo)[:, cols] = coef[lo:hi].transpose(2, 1, 0)
                parts.append(part)
            out[lo:hi] = self.sec.unfold(parts, self.orbits).T
        return out


def _mix(signs, coef):
    """signs @ coef over the first axis of coef, whatever axes follow it."""
    return (signs @ coef.reshape(coef.shape[0], -1)).reshape(coef.shape)


def _table_fold(table, lattice, a_orbits, b_orbits, signs, rank=None):
    """(m_a, m_b) F[a, b] = sum_k chi(k) J(k b - a) over the representatives
    a of a_orbits and b of b_orbits, C-ordered, with chi(k) the product of
    signs[axis] over the axes that k mirrors (0: the axis keeps no mirror).
    Per rectangle of each (kernels._rectangles) and per axis, from the
    mirror i -> m - 1 - i and the evenness of J: the identity takes the
    table at offset i_b - i_a, a Toeplitz view in the two rectangles'
    coordinates, and the mirror at m - 1 - i_b - i_a, read at i_a + i_b, a
    Hankel view. The second axis is summed first over every line offset,
    then the first axis from that. Each sum takes the same numbers for a b
    as for b a, so the fold of one class with itself is exactly symmetric.
    Each line of a rectangle of a is written as a whole, with row a at
    rank[a] if rank is given (Orbits.rank: pair, partner, diag order), so
    that no reordered copy of the whole is made."""
    m0, m1 = lattice
    out = np.empty((a_orbits.size, b_orbits.size))
    rows = np.arange(a_orbits.size) if rank is None else rank
    for ai0, ai1, aj0, aj1, a_first, a_width, a_off in a_orbits.rects:
        for bi0, bi1, bj0, bj1, b_first, b_width, b_off in b_orbits.rects:
            # [d, u, v]: line offset d - m0 + 1, columns aj0 + u and bj0 + v
            part = _lagged(table, m1 - 1 + bj0 - aj0, aj1 - aj0, bj1 - bj0, 1, toeplitz=True)
            if signs[1]:
                part = _signed_sum(part, _lagged(table, aj0 + bj0, aj1 - aj0, bj1 - bj0, 1),
                                   signs[1])
            # [u, ., v, .]: lines ai0 + u and bi0 + v
            lines = _lagged(part, m0 - 1 + bi0 - ai0, ai1 - ai0, bi1 - bi0, 0,
                            toeplitz=True).transpose(0, 1, 3, 2)
            mirrored = (_lagged(part, ai0 + bi0, ai1 - ai0, bi1 - bi0, 0).transpose(0, 1, 3, 2)
                        if signs[0] else None)
            # [row, v, .]: the columns bi0 + v of every row
            cols = out[:, b_first:b_first + (bi1 - bi0) * b_width].reshape(
                out.shape[0], bi1 - bi0, b_width)[:, :, b_off:b_off + bj1 - bj0]
            for u in range(ai1 - ai0):
                start = a_first + u * a_width + a_off
                cols[rows[start:start + aj1 - aj0]] = (
                    _signed_sum(lines[u], mirrored[u], signs[0]) if signs[0] else lines[u])
    return out


def _lagged(x, first, count, width, axis, toeplitz=False):
    """A view y of x with, along axis, y[u] at axis and y[v] last equal to
    x[first + u + v] (Hankel), or x[first - u + v] when toeplitz is set, for
    u in range(count) and v in range(width)."""
    win = sliding_window_view(x, width, axis=axis)
    lead = (slice(None),) * axis
    if toeplitz:
        return np.flip(win[lead + (slice(first - count + 1, first + 1),)], axis=axis)
    return win[lead + (slice(first, first + count),)]


def _signed_sum(x, y, sign):
    """x + y, or x - y for a negative sign."""
    return np.add(x, y) if sign > 0 else np.subtract(x, y)


def _scale(block, row_mu, col_mu):
    """block[a, b] *= row_mu[a] col_mu[b] in place, the product of the two
    measures formed first, a few columns of the Fortran-ordered block at a
    time, in its order."""
    step = max(1, (1 << 16) // max(block.shape[0], 1))
    for c in range(0, block.shape[1], step):
        block[:, c:c + step] *= np.multiply.outer(col_mu[c:c + step], row_mu).T


def _halves(fold, orbits, q):
    """The sigma-even and sigma-odd blocks, both Fortran-ordered, of the
    block B = fold.T, where fold's rows are the q pairs b of the column
    class, their q partners and its diagonal, and its columns the
    representatives a of orbits in their own order: each half is written
    C-ordered, as its transpose, its columns gathered straight from those
    rows, with no reordered copy of the whole. The even block's entry at
    two pairs is ((B[a, b] + B[sa, sb]) + (B[a, sb] + B[sa, b])) / 2 with s
    for sigma, whose transpose sums the same two pairs of terms, so the
    halves of a symmetric block are exactly symmetric."""
    pair, partner, diag = orbits.pair, orbits.partner, orbits.diag
    p = pair.shape[0]
    lead, swapped, tail = fold[:q], fold[q:2 * q], fold[2 * q:]
    same = lead.take(pair, axis=1)
    same += swapped.take(partner, axis=1)
    cross = swapped.take(pair, axis=1)
    cross += lead.take(partner, axis=1)
    even = np.empty((fold.shape[0] - q, orbits.size - p))
    np.add(same, cross, out=even[:q, :p])
    even[:q, :p] *= 0.5
    odd = np.subtract(same, cross, out=same)
    del cross
    odd *= 0.5
    np.add(lead.take(diag, axis=1), swapped.take(diag, axis=1), out=even[:q, p:])
    even[:q, p:] *= _HALF
    np.add(tail.take(pair, axis=1), tail.take(partner, axis=1), out=even[q:, :p])
    even[q:, :p] *= _HALF
    even[q:, p:] = tail.take(diag, axis=1)
    return [even.T, odd.T]


def _class_orbits(n, class_idx, is_rep, perms, sigma, lattice):
    pos = np.full(n, -1)
    pos[class_idx] = np.arange(class_idx.shape[0])
    reps = class_idx[is_rep[class_idx]]
    images = np.stack([perm[reps] for perm in perms])
    table = pos[images]
    slot = np.full(n, -1)
    slot[images] = np.arange(reps.shape[0])
    swap = slot[sigma[reps]]
    pair = np.flatnonzero(swap > np.arange(reps.shape[0]))
    diag = np.flatnonzero(swap == np.arange(reps.shape[0]))
    rects = () if lattice is None else _rectangles(lattice[1], reps)
    return Orbits(table=table, reps=reps, swap=swap, pair=pair, diag=diag, rects=rects)


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
    perms, is_rep, signs, axes = [node], np.ones(grid.n, dtype=bool), np.ones((1, 1)), []
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
            axes.append(axis)
        transpose = index.T.ravel()
        if len(perms) == 4 and op.lattice[0] == op.lattice[1] and _invariant(grid, transpose):
            sigma = transpose
    if sigma is node:
        blocks = tuple(Block(c, 0) for c in range(len(perms)))
    else:
        blocks = (Block(0, 1), Block(0, -1), Block(1, 0), Block(3, 1), Block(3, -1))
    sec = Sectors(signs=signs, axes=tuple(axes), blocks=blocks,
                  strip=_class_orbits(grid.n, op.strip_idx, is_rep, perms, sigma, op.lattice),
                  interior=_class_orbits(grid.n, op.interior_idx, is_rep, perms, sigma,
                                         op.lattice))
    op._cache["sectors"] = sec
    return sec
