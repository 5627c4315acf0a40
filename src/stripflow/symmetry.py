"""The coordinate mirrors of the box that leave an operator invariant, and
the blocks of the p = 2 dense work under them.

An operator from assemble has the coefficients mu[x] mu[y] J(offset) with
J radial, so a mirror of the lattice that leaves grid.mu and grid.klass
unchanged maps its edge list onto itself. The group G of such mirrors,
each along an axis with an even node count so that every orbit has |G|
nodes, splits every matrix that commutes with them into one block per
character chi of G, a sector (Bossavit, Comput. Methods Appl. Mech. Engrg.
56, 1986). In the orthonormal basis e_a^chi = |G|^(-1/2) sum_k chi(k) e_(k a)
over the orbit representatives a, the block of a matrix L is
L_chi[a, b] = sum_k chi(k) L[a, k b]: read off the rows of L at the
representatives, with no product of sparse matrices. The blocks of L_II,
the Schur complement S and M + dt S are 1/|G| the size of the whole, and
the vector folds between the two bases cost O(n).

Operators that assemble did not build (fixtures pinned from a dense
kernel matrix) have G = {e}: one sector, whose block is the matrix
itself, through the same code.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Orbits:
    """The orbits of one node class (strip or interior) under G, in the
    positions of the class's nodes in ascending node order.

    table : (|G|, m) table[k, a] is the position of the image k a of the
        class's a-th representative; table[0] lists the representatives.
    reps : (m,) global node numbers of the representatives.
    slot, elem : (n_C,) for each position the representative a and the
        group element k with position = k a.
    """

    table: np.ndarray
    reps: np.ndarray
    slot: np.ndarray
    elem: np.ndarray

    @property
    def size(self):
        """Nodes per sector block: the number of orbits."""
        return self.table.shape[1]


@dataclass(frozen=True)
class Sectors:
    """The mirror group G of one operator and its sectors.

    signs : (|G|, |G|) the characters, signs[c, k] = chi_c(k) = +-1 for the
        group element k (a bit mask of the kept mirrors) and the character
        c (a bit mask too), the trivial one first. Symmetric.
    strip, interior : the Orbits of the two node classes.
    """

    signs: np.ndarray
    strip: Orbits
    interior: Orbits

    @property
    def count(self):
        return self.signs.shape[0]

    def fold(self, vals, orbits):
        """(|G|, m) sector coefficients sum_k chi(k) vals[k a] of the values
        on one class: |G|^(1/2) times those in the orthonormal basis."""
        return self.signs @ vals[orbits.table]

    def unfold(self, coef, orbits):
        """The class values whose fold is coef: the inverse of fold."""
        out = np.empty(orbits.table.size)
        out[orbits.table] = (self.signs @ coef) / self.count
        return out

    def fold_rows(self, block, row_orbits, col_orbits):
        """The sector blocks B_chi[a, b] = sum_k chi(k) B[a, k b] of a CSR
        block B with sorted columns, rows over the positions of row_orbits'
        class and columns over those of col_orbits' class, invariant under
        G. Yields one dense Fortran-ordered (row_orbits.size,
        col_orbits.size) block per sector, each from one pass over the
        stored entries of B's rows at the representatives. The terms of
        B_chi[a, b] are summed in the order of the positions k b, which is
        the same order of k for every representative b: each mirror takes
        the representatives' corner of the lattice to higher node numbers,
        the mirror of the first axis past that of the second. So the block
        of a symmetric B is exactly symmetric."""
        rows = block[row_orbits.table[0]]
        m_r, m_c = row_orbits.size, col_orbits.size
        # the block is written transposed, so that its transpose is Fortran-ordered
        flat = col_orbits.slot[rows.indices] * m_r
        flat += np.repeat(np.arange(m_r), np.diff(rows.indptr))
        elem = col_orbits.elem[rows.indices]
        data = rows.data
        del rows
        for chi in self.signs:
            weights = chi[elem]
            weights *= data
            # bincount of no entries gives integers, even with weights
            out = np.bincount(flat, weights=weights, minlength=m_r * m_c)
            del weights
            yield out.astype(float, copy=False).reshape(m_c, m_r).T

    def unfold_matrix(self, blocks, orbits):
        """The dense matrix over one class with the given sector blocks:
        M[k a, l b] = (1/|G|) sum_chi chi(k) chi(l) M_chi[a, b]. Exactly
        symmetric when every block is."""
        out = np.empty((orbits.table.size,) * 2)
        for k in range(self.count):
            for l in range(self.count):
                weights = self.signs[:, k] * self.signs[:, l] / self.count
                part = weights[0] * blocks[0]
                for w, block in zip(weights[1:], blocks[1:]):
                    part += w * block
                out[np.ix_(orbits.table[k], orbits.table[l])] = part
        return out


def _class_orbits(n, class_idx, is_rep, perms):
    pos = np.full(n, -1)
    pos[class_idx] = np.arange(class_idx.shape[0])
    reps = class_idx[is_rep[class_idx]]
    table = np.stack([pos[perm[reps]] for perm in perms])
    slot = np.empty(class_idx.shape[0], dtype=np.int64)
    slot[table] = np.arange(reps.shape[0])
    elem = np.empty(class_idx.shape[0], dtype=np.int8)
    elem[table] = np.arange(len(perms))[:, None]
    return Orbits(table=table, reps=reps, slot=slot, elem=elem)


def sectors(op):
    """The sectors of op, worked out on first use and cached on it.

    G holds the mirror i -> m - 1 - i of each lattice axis whose node count
    m is even and under which grid.mu and grid.klass are unchanged, an O(n)
    check; an operator that assemble did not build has G = {e}."""
    if "sectors" in op._cache:
        return op._cache["sectors"]
    grid = op.grid
    node = np.arange(grid.n)
    perms, is_rep, signs = [node], np.ones(grid.n, dtype=bool), np.ones((1, 1))
    if op.lattice is not None:
        index = node.reshape(op.lattice)
        for axis, m in enumerate(op.lattice):
            mirror = np.flip(index, axis).ravel()
            if (m % 2 or not np.array_equal(grid.mu[mirror], grid.mu)
                    or not np.array_equal(grid.klass[mirror], grid.klass)):
                continue
            is_rep &= (np.indices(op.lattice)[axis] < m // 2).ravel()
            # the new mirror is the next bit of k: its elements follow the
            # old ones, and a character takes the sign -1 on it or not
            perms += [perm[mirror] for perm in perms]
            signs = np.block([[signs, signs], [signs, -signs]])
    sec = Sectors(signs=signs,
                  strip=_class_orbits(grid.n, op.strip_idx, is_rep, perms),
                  interior=_class_orbits(grid.n, op.interior_idx, is_rep, perms))
    op._cache["sectors"] = sec
    return sec
