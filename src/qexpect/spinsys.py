"""Spin-1/2 systems: operators, Hamiltonian, Liouvillian, states, observables.

Conventions fixed here (and validated against the dense oracle in the test
suite):

* basis ordering: site 0 is the slowest-varying Kronecker factor;
* single-spin basis: ``Iz = diag(1/2, -1/2)`` (spin-up first), so the shift-up
  operator ``Ip = Ix + i*Iy`` has its unit entry at (0, 1);
* angular frequencies throughout (rad per time unit); converting from cyclic
  frequencies is the caller's job (the CLI multiplies Hz by 2*pi);
* with column-stacking vectorisation the commutator superoperator is
  ``L = Id (x) H - H.T (x) Id``, which satisfies ``L vec(rho) = vec(H rho - rho H)``
  and is Hermitian for Hermitian H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ResourceError
from .sparse import SparseMatrix
from .spectral import INFLATION_FLOOR, ScalingParams

__all__ = [
    "SpinSystemSpec",
    "build_hamiltonian",
    "build_liouvillian",
    "hilbert_components",
    "trace_block",
    "SectorOperator",
    "TraceSystem",
    "assemble",
    "initial_state",
    "observable_name",
    "observable_by_name",
]

#: Relative outward padding of :meth:`TraceSystem.spectral_interval`, against
#: ``eigvalsh`` roundoff and the rounding of the rescaled operator's entries.
SECTOR_PAD = 1e-12

#: Largest spin count whose Liouville dimension ``4**n`` fits in a 64-bit index.
MAX_SPINS = 31


#: States of the largest kept sector of H that :meth:`TraceSystem.line_list`
#: diagonalises before it refuses with :class:`ResourceError`.
SECTOR_CAP = 4096

#: The single-spin operators the observables are built from, dense 2x2:
#: ``ip = ix + i*iy`` is the shift-up operator.
_SPIN_HALF = {
    "ip": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128),
    "ix": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128),
    "iy": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=np.complex128),
    "iz": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=np.complex128),
}


@dataclass(frozen=True)
class SpinSystemSpec:
    """An n-spin-1/2 problem: Larmor frequencies and scalar couplings.

    ``omega0[j]`` is the angular Larmor frequency of spin j and ``j_coupling``
    the symmetric coupling matrix (zero diagonal), both in rad per time unit.
    """

    n: int
    omega0: np.ndarray
    j_coupling: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega0", np.asarray(self.omega0, dtype=float))
        object.__setattr__(self, "j_coupling", np.asarray(self.j_coupling, dtype=float))
        if not 1 <= self.n <= MAX_SPINS:
            raise ConfigError(f"spin count {self.n} lies outside 1..{MAX_SPINS}; the "
                              "Liouville dimension 4**n must fit in a 64-bit index")
        if self.omega0.shape != (self.n,):
            raise ConfigError(
                f"omega0 has shape {self.omega0.shape}, expected ({self.n},)"
            )
        if not np.all(np.isfinite(self.omega0)):
            raise ConfigError("omega0 entries must be finite")
        j = self.j_coupling
        if j.shape != (self.n, self.n):
            raise ConfigError(
                f"coupling matrix has shape {j.shape}, expected ({self.n}, {self.n})"
            )
        if not np.all(np.isfinite(j)):
            raise ConfigError("coupling entries must be finite")
        if not np.array_equal(j, j.T):
            bad = np.argwhere(j != j.T)
            r, c = bad[0]
            raise ConfigError(
                f"coupling matrix must be symmetric: J[{r},{c}]={j[r, c]!r} "
                f"differs from J[{c},{r}]={j[c, r]!r}"
            )
        if np.any(np.diag(j) != 0.0):
            raise ConfigError("coupling matrix must have a zero diagonal")
        self.omega0.flags.writeable = False
        self.j_coupling.flags.writeable = False

    @property
    def hilbert_dim(self) -> int:
        return 2**self.n

    @property
    def liouville_dim(self) -> int:
        return 4**self.n


def _site_sum(op: np.ndarray, sites, n: int) -> SparseMatrix:
    """``sum_j Id (x) op (x) Id`` over the given sites, from one set of triplets.

    Built from the bits of the basis index: site j contributes ``op[a, b]``
    at ``(s, s')`` when s and s' agree off its bit (``n-1-j``) and carry a
    and b on it. Entries two sites share are summed by the CSR build.
    """
    states = np.arange(2**n)
    rows, cols, vals = [], [], []
    for site in sites:
        shift = n - 1 - site
        bit = (states >> shift) & 1
        for a in (0, 1):
            for b in (0, 1):
                if op[a, b] != 0:
                    on = states[bit == a]
                    rows.append(on)
                    cols.append(on ^ ((a ^ b) << shift))
                    vals.append(np.full(on.shape[0], op[a, b], dtype=np.complex128))
    return SparseMatrix.from_triplets(np.concatenate(rows), np.concatenate(cols),
                                      np.concatenate(vals), (2**n, 2**n))


def build_hamiltonian(spec: SpinSystemSpec) -> SparseMatrix:
    """Chemical-shift plus isotropic-coupling Hamiltonian.

    ``H = -sum_j omega0[j] Iz_j + sum_{j<l} J[j,l] (Ix_j Ix_l + Iy_j Iy_l + Iz_j Iz_l)``
    with each unordered pair counted once. Built from the bits of the basis
    index: site j is bit ``n-1-j``, clear for spin up. The diagonal collects
    ``-omega0[j] m_j`` and ``J[j,l] m_j m_l`` (Zeeman terms first, pairs in
    order); ``Ix Ix + Iy Iy`` only flips an antiparallel pair, with
    amplitude ``J[j,l] / 2``.
    """
    n, dim = spec.n, spec.hilbert_dim
    states = np.arange(dim)
    bits = [(states >> (n - 1 - j)) & 1 for j in range(n)]
    m = [0.5 - b for b in bits]
    diag = np.zeros(dim)
    for j in range(n):
        if spec.omega0[j] != 0.0:
            diag += -spec.omega0[j] * m[j]
    rows, cols, vals = [], [], []
    for j in range(n):
        for l in range(j + 1, n):
            coupling = spec.j_coupling[j, l]
            if coupling == 0.0:
                continue
            diag += coupling * (m[j] * m[l])
            flip = states[bits[j] != bits[l]]
            rows.append(flip)
            cols.append(flip ^ ((1 << (n - 1 - j)) | (1 << (n - 1 - l))))
            vals.append(np.full(flip.shape[0], 0.5 * coupling))
    rows.append(states)
    cols.append(states)
    vals.append(diag)
    return SparseMatrix.from_triplets(np.concatenate(rows), np.concatenate(cols),
                                      np.concatenate(vals), (dim, dim))


def _row_entries(m, rows: np.ndarray):
    """Every stored entry of the given CSR rows, as ``(k, column, value)``.

    ``k`` is the position in ``rows`` the entry belongs to.
    """
    start = m.indptr[rows]
    count = m.indptr[rows + 1] - start
    owner = np.repeat(np.arange(rows.shape[0]), count)
    flat = np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)
    return owner, m.indices[flat], m.data[flat]


def build_liouvillian(h: SparseMatrix, blocks=None) -> SparseMatrix:
    """Commutator superoperator for column-stacked states, read off ``h``.

    ``L[(i,j), (i',j)] = H[i,i']`` and ``L[(i,j), (i,j')] = -H[j',j]``, so
    ``L vec(rho) = vec(H rho - rho H)``, i.e. ``L = Id (x) H - H.T (x) Id``
    on coordinates ``i + j*dim``. ``blocks`` is ``(label, pairs)``, the
    :func:`hilbert_components` labels and the pairs :func:`_kept_pairs`
    returns: the operator is then the one on those blocks, in the layout of
    :func:`_block_layout`, equal to
    ``build_liouvillian(h).restrict(trace_block(...))``. ``None`` means the
    full space, the case of one component and one pair.
    """
    dim = h.nrows
    if blocks is None:
        blocks = np.zeros(dim, dtype=np.intp), np.zeros((1, 2), dtype=np.intp)
    i, j, rank, height = _block_layout(*blocks)
    # H only links states of one component, so both neighbours of a
    # coordinate lie in its own block, at an offset its ranks give
    k, col, val = _row_entries(h.csr, i)
    left = k, k + (rank[col] - rank[i[k]]), val
    k, row, val = _row_entries(h.transpose().csr, j)
    right = k, k + (rank[row] - rank[j[k]]) * height[k], np.negative(val, out=val)
    del k, col, row, val
    rows, cols, vals = (np.concatenate(pair) for pair in zip(left, right))
    del left, right
    return SparseMatrix.from_triplets(rows, cols, vals, (i.shape[0], i.shape[0]))


def hilbert_components(h: SparseMatrix) -> np.ndarray:
    """Connected components of the sparsity graph of ``h``, one label per basis state.

    Basis states i and i' are linked when ``H[i,i']`` or ``H[i',i]`` is
    stored (nonzero); each state is labelled with the smallest index in its
    component. Minimum-label propagation with pointer jumping over the
    stored entries.
    """
    rows = np.repeat(np.arange(h.nrows), np.diff(h.csr.indptr))
    cols = h.csr.indices
    label = np.arange(h.nrows)
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, cols, label[rows])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def _kept_pairs(label: np.ndarray, source, reads) -> np.ndarray:
    """The kept (a, b) pairs of :func:`trace_block`, from two supports.

    ``source`` and ``reads`` are ``(i, j)`` coordinate arrays: the entries
    ``rho[i, j]`` that ``rho0`` sets, and those some trace form reads.
    ``label`` holds the :func:`hilbert_components` labels. Returns a
    ``(k, 2)`` array of component labels, ordered by ``a * dim + b``.
    """
    dim = label.shape[0]
    source = np.unique(label[source[0]] * dim + label[source[1]])
    kept = np.intersect1d(source, label[reads[0]] * dim + label[reads[1]])
    if kept.size == 0:
        kept = source
    return np.column_stack([kept // dim, kept % dim])


def _sectors(label: np.ndarray):
    """The sector table of the labels: ``(order, bounds, rank)``.

    Component c holds the states ``order[bounds[c]:bounds[c + 1]]``, in
    ascending order, and state s is number ``rank[s]`` of its component.
    """
    order = np.argsort(label, kind="stable")
    bounds = np.searchsorted(label[order], np.arange(label.shape[0] + 1))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0]) - bounds[label[order]]
    return order, bounds, rank


def _block_layout(label: np.ndarray, pairs: np.ndarray):
    """Where each coordinate of the given blocks sits: ``(i, j, rank, height)``.

    The blocks follow one another in the order of ``pairs``, and the block
    ``X_ab`` of pair (a, b) is column-stacked, so ``rho[i, j]`` sits at
    ``offset_ab + rank[i] + rank[j] * |a|``. Returns, per coordinate, its
    row and column state ``i`` and ``j`` and the height ``|a|`` of its
    block, with the ``rank`` of :func:`_sectors`.
    """
    order, bounds, rank = _sectors(label)
    size = np.diff(bounds)
    a, b = pairs[:, 0], pairs[:, 1]
    count = size[a] * size[b]
    pair = np.repeat(np.arange(pairs.shape[0]), count)
    local = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    height = size[a][pair]
    i = order[bounds[a][pair] + local % height]
    j = order[bounds[b][pair] + local // height]
    return i, j, rank, height


def trace_block(h: SparseMatrix, rho0: np.ndarray, w_rows: np.ndarray) -> np.ndarray:
    """Liouville coordinates ``i + j*dim`` that carry ``w_rows @ rho(t)`` exactly.

    ``L`` only links ``rho[i, j]`` to ``rho[i', j]`` with ``H[i,i'] != 0``
    and to ``rho[i, j']`` with ``H[j',j] != 0``, so each pair (component a,
    component b) of :func:`hilbert_components` spans an invariant block.
    Blocks ``rho0`` does not touch stay zero, and blocks no trace form reads
    add nothing, so the kept blocks are those ``rho0`` touches and some row
    of ``w_rows`` reads. When there are none every expectation is exactly
    zero, and ``rho0``'s own blocks are kept so that engines still have a
    state to propagate. The coordinates come pair by pair, each block
    column-stacked (see :func:`_block_layout`): the order of the operator
    ``assemble`` builds. This is the full-space reference: ``assemble``
    finds the same blocks from the supports of ``rho0`` and the
    observables, without a vector of length ``4**n``.
    """
    dim = h.nrows
    label = hilbert_components(h)
    pairs = _kept_pairs(label, np.nonzero(rho0.reshape(dim, dim, order="F")),
                        np.nonzero(np.any(w_rows != 0, axis=0).reshape(dim, dim, order="F")))
    i, j, _, _ = _block_layout(label, pairs)
    return i + j * dim


def _initial_entries(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``rho0[i[k], j[k]]`` of :func:`initial_state`, by bit arithmetic.

    ``-Iy`` on the site of bit ``f`` links state s to ``s ^ f``, so the
    entry is nonzero only where ``i ^ j`` is a single bit: ``i/2`` where
    that bit is clear in ``i`` (spin up) and ``-i/2`` where it is set.
    """
    flip = i ^ j
    single = (flip != 0) & ((flip & (flip - 1)) == 0)
    # complex(0, -0.5), not -0.5j, whose real part is -0.0
    return np.where(single, np.where(i & flip, complex(0, -0.5), 0.5j), 0j)


def initial_state(n: int) -> np.ndarray:
    """Vectorised ``-sum_j Iy_j``, the state right after an x pulse:
    :func:`_initial_entries` at every coordinate ``i + j*2**n``."""
    if n < 1:
        raise ValueError("need at least one spin")
    j, i = np.divmod(np.arange(4**n), 2**n)
    return _initial_entries(i, j)


def observable_name(name: str, n: int) -> str:
    """The canonical form of an observable's name on n spins.

    Totals: ``ip``, ``ix``, ``iy``, ``iz``; the total shift-up operator
    ``ip = sum_j (Ix_j + i*Iy_j)`` gives the detected free-induction signal.
    Site-resolved variants use a colon suffix, e.g. ``ip:0`` or ``iz:3``.
    The canonical form is lower case and unpadded, with the site a plain
    integer: ``' IP:01'`` is ``'ip:1'``. An unknown name, a site that is not
    an integer and a site outside ``[0, n)`` raise :class:`ConfigError`.
    """
    base, colon, site_txt = name.strip().lower().partition(":")
    if base not in _SPIN_HALF:
        raise ConfigError(f"unknown observable {name!r}; expected one of {sorted(_SPIN_HALF)}")
    if not colon:
        return base
    try:
        site = int(site_txt)
    except ValueError as exc:
        raise ConfigError(f"bad site index in observable {name!r}") from exc
    if not 0 <= site < n:
        raise ConfigError(f"observable {name!r}: site must be in [0, {n})")
    return f"{base}:{site}"


def observable_by_name(name: str, n: int) -> SparseMatrix:
    """The observable a config names, on n spins; :func:`observable_name` reads the name."""
    if n < 1:
        raise ValueError("need at least one spin")
    base, _, site = observable_name(name, n).partition(":")
    return _site_sum(_SPIN_HALF[base], (int(site),) if site else range(n), n)


def _sector_stacks(h: SparseMatrix, components: np.ndarray, kept: np.ndarray) -> dict:
    """H on the sectors ``kept``, dense: ``{m: (labels, blocks)}`` per sector size m.

    ``blocks[k]`` is H on component ``labels[k]``, its states in ascending
    order. Every stack is float64 when each kept sector is real, else
    complex128. H only links states of one component, so the rows of a
    sector's states hold its whole block.
    """
    order, bounds, rank = _sectors(components)
    size = np.diff(bounds)[kept]
    stacks = {}
    for m in map(int, np.unique(size)):
        labels = kept[size == m]
        k, col, val = _row_entries(h.csr, order[bounds[labels][:, None] + np.arange(m)].ravel())
        blocks = np.zeros((labels.shape[0], m, m), dtype=np.complex128)
        blocks[k // m, k % m, rank[col]] = val
        stacks[m] = labels, blocks
    if not any(np.any(blocks.imag) for _, blocks in stacks.values()):
        stacks = {m: (labels, blocks.real.copy()) for m, (labels, blocks) in stacks.items()}
    return stacks


class SectorOperator:
    """The Liouvillian of a trace block, held as the dense sectors of H.

    On kept pair (a, b) it maps the column-stacked block ``X_ab`` to
    ``H_a X - X H_b``, where ``H_a`` is H on component a: the operator that
    ``build_liouvillian(h, blocks)`` stores as a CSR, in the same layout
    (see :func:`_block_layout`). The sector blocks are dense, and float64
    when every kept sector of H is real. Pairs whose blocks have the same
    shape ``(|a|, |b|)`` are stacked, so :meth:`matvec` is one batched
    ``matmul`` pair per distinct shape. :func:`qexpect.sparse.spmv`
    dispatches to it and counts each product.

    It answers the Chebyshev sweeps as a
    :class:`qexpect.sparse.SparseMatrix` does: ``real`` says every entry
    is real, ``symmetric`` that the operator equals its transpose entry for
    entry, which holds exactly when every kept sector is real and bitwise
    symmetric, and :meth:`rescale` and :meth:`matvec` take the same
    arguments. ``nnz`` counts the stored block entries one product reads.
    """

    def __init__(self, groups, nrows: int, real: bool, symmetric: bool):
        # one (where, left, right) per shape: left[k] = H_a^T and right[k] = H_b^T
        # for its k-th pair, whose coordinates x[where] holds in turn
        self._groups = groups
        self.nrows = self.ncols = nrows
        self.real = real
        self.symmetric = symmetric
        self.nnz = sum(left.size + right.size for _, left, right in groups)
        self._dtype = np.dtype(np.float64 if real else np.complex128)

    @classmethod
    def from_sectors(cls, stacks: dict, pairs: np.ndarray) -> "SectorOperator":
        """The operator of ``pairs`` on the sector blocks ``stacks`` of
        :attr:`TraceSystem.sector_stacks`."""
        size = np.zeros(1 + int(pairs.max()), dtype=np.intp)
        place = np.zeros_like(size)  # a sector's index in the stack of its size
        for m, (labels, _) in stacks.items():
            size[labels], place[labels] = m, np.arange(labels.shape[0])
        a, b = pairs[:, 0], pairs[:, 1]
        p, q = size[a], size[b]
        offset = np.cumsum(p * q) - p * q
        shapes, shape = np.unique(p * (q.max() + 1) + q, return_inverse=True)
        groups = []
        for s in range(shapes.shape[0]):
            k = np.flatnonzero(shape == s)
            p_k, q_k = p[k[0]], q[k[0]]
            if k[-1] - k[0] == k.shape[0] - 1:  # consecutive pairs: a slice of the vector
                where = slice(offset[k[0]], offset[k[0]] + k.shape[0] * p_k * q_k)
            else:
                where = (offset[k][:, None] + np.arange(p_k * q_k)).ravel()
            left = stacks[p_k][1][place[a[k]]].transpose(0, 2, 1)
            right = stacks[q_k][1][place[b[k]]].transpose(0, 2, 1)
            groups.append((where, np.ascontiguousarray(left), np.ascontiguousarray(right)))
        stacked = [blocks for _, blocks in stacks.values()]
        real = all(blocks.dtype == np.float64 for blocks in stacked)
        symmetric = real and all(np.array_equal(blocks, blocks.transpose(0, 2, 1))
                                 for blocks in stacked)
        return cls(groups, int(np.sum(p * q)), real, symmetric)

    def rescale(self, scaling: ScalingParams, real: bool = False) -> "SectorOperator":
        """``(L - S)/D``, with ``S`` and ``D`` folded into the blocks:
        ``(H_a - S)/D`` on the left and ``H_b/D`` on the right.

        The blocks keep their dtype whatever ``real`` asks for: float64
        blocks serve float64 and complex128 vectors alike, each bitwise.
        """
        if scaling.D <= 0.0:
            raise ValueError("half-width must be positive (inflation floor guarantees this)")
        groups = [(where, (left - scaling.S * np.eye(left.shape[1])) / scaling.D,
                   right / scaling.D) for where, left, right in self._groups]
        return SectorOperator(groups, self.nrows, self.real, self.symmetric)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``L x``: float64 when ``x`` and the blocks are, else complex128."""
        y = np.empty(self.nrows, dtype=np.promote_types(x.dtype, self._dtype))
        for where, left, right in self._groups:
            # read row-major, a column-stacked X is X^T, and
            # (H_a X - X H_b)^T = X^T H_a^T - H_b^T X^T
            xt = x[where].reshape(left.shape[0], right.shape[1], left.shape[1])
            out = xt @ left
            out -= right @ xt
            y[where] = out.reshape(-1)
        return y

    def __repr__(self):
        return f"SectorOperator(nrows={self.nrows}, shapes={len(self._groups)}, nnz={self.nnz})"


@dataclass(frozen=True)
class TraceSystem:
    """What an engine propagates: operator, state and trace forms on one block.

    ``rho0`` and every trace form in ``observables`` (label -> 1-D array) are
    restricted to the coordinates kept by :func:`trace_block`, in its order.
    ``hamiltonian``, ``components`` (its :func:`hilbert_components` labels)
    and ``pairs`` (the kept component pairs, one row each) define the block:
    pair k's block ``X_ab`` is column-stacked in the k-th slice of every
    vector. The Liouvillian on the block comes in two forms, each built on
    first use: ``l_op``, a CSR, and ``sector_op``, a
    :class:`SectorOperator` on the dense sectors of H in
    ``sector_stacks``. ``dec`` sweeps ``sector_op`` and the other engines
    take ``l_op``; either way they return the same expectations as on the
    full space. :meth:`spectral_interval` reads the exact spectrum off the
    same sector blocks, and :meth:`line_list` the exact line list that the
    ``oracle`` engine sums.
    """

    rho0: np.ndarray
    observables: dict
    hamiltonian: SparseMatrix
    components: np.ndarray
    pairs: np.ndarray

    @property
    def block_dim(self) -> int:
        return self.rho0.shape[0]

    @cached_property
    def l_op(self) -> SparseMatrix:
        """The block Liouvillian as a CSR, ``build_liouvillian(h, (components, pairs))``."""
        return build_liouvillian(self.hamiltonian, (self.components, self.pairs))

    @cached_property
    def sector_stacks(self) -> dict:
        """H on every kept sector, dense, as :func:`_sector_stacks` returns it."""
        return _sector_stacks(self.hamiltonian, self.components, np.unique(self.pairs))

    @cached_property
    def sector_op(self) -> SectorOperator:
        """The block Liouvillian as a :class:`SectorOperator` on :attr:`sector_stacks`."""
        return SectorOperator.from_sectors(self.sector_stacks, self.pairs)

    def spectral_interval(self) -> ScalingParams:
        """Exact spectral interval of the block Liouvillian, read off the sectors of H.

        On the block of pair (a, b), ``L`` maps ``X`` to ``H_a X - X H_b``,
        where ``H_a`` is H on component a, so its eigenvalues are
        ``lambda_i(H_a) - lambda_j(H_b)``. One batched ``eigvalsh`` per
        stack of :attr:`sector_stacks` (one per sector size) gives the exact
        extremes. The interval is padded outward by ``SECTOR_PAD``
        times its largest endpoint modulus, which covers ``eigvalsh``
        roundoff and the rounding of the rescaled entries ``L/D - S/D``, plus
        ``INFLATION_FLOOR``, which keeps the half-width positive when the
        spectrum is a single point.
        """
        low = np.empty(self.components.shape[0])
        high = np.empty_like(low)
        for labels, blocks in self.sector_stacks.values():
            ev = np.linalg.eigvalsh(blocks)
            low[labels], high[labels] = ev[:, 0], ev[:, -1]
        a, b = self.pairs[:, 0], self.pairs[:, 1]
        beta = float(np.min(low[a] - high[b]))
        alpha = float(np.max(high[a] - low[b]))
        pad = SECTOR_PAD * max(abs(alpha), abs(beta)) + INFLATION_FLOOR
        return ScalingParams.from_bounds(alpha=alpha + pad, beta=beta - pad)

    def line_list(self):
        """The block's exact line list ``(omega, amp)``, one row of ``amp`` per observable:
        ``f_q(t) = sum_l amp[q, l] exp(-i omega_l t)``.

        One ``eigh`` per stack of :attr:`sector_stacks` gives
        ``H_a = U_a diag(lambda) U_a^dagger`` for every kept sector. The block
        of pair (a, b) maps ``X`` to ``H_a X - X H_b``, so it contributes the
        lines ``omega = lambda_k - mu_l`` with amplitudes
        ``(U_a^T G conj(U_b)) * (U_a^dagger R U_b)``, where ``R`` and ``G`` are
        ``rho0`` and a trace form on the pair, unstacked to ``|a| x |b|``.
        Lines come pair by pair, each pair's ``|a| x |b|`` grid row-major.
        No Liouvillian is built. Raises :class:`ResourceError` before any
        eigensolve when a kept sector holds more than
        ``SECTOR_CAP`` states.
        """
        largest = int(np.bincount(self.components)[np.unique(self.pairs)].max())
        if largest > SECTOR_CAP:
            raise ResourceError(f"a kept sector of H holds {largest} states, past the cap "
                                f"{SECTOR_CAP}; use a sparse engine (dec/cheb/krylov) "
                                "instead")
        eig = {}
        for labels, blocks in self.sector_stacks.values():
            eig.update(zip(labels.tolist(), zip(*np.linalg.eigh(blocks))))
        forms = np.array(list(self.observables.values()))
        omega, amp, start = [], [], 0
        for a, b in self.pairs.tolist():
            (lam_a, u_a), (lam_b, u_b) = eig[a], eig[b]
            p, q = lam_a.shape[0], lam_b.shape[0]
            # read row-major, the column-stacked block X_ab is its transpose
            r = self.rho0[start : start + p * q].reshape(q, p).T
            g = forms[:, start : start + p * q].reshape(-1, q, p).transpose(0, 2, 1)
            omega.append((lam_a[:, None] - lam_b).ravel())
            amp.append(((u_a.T @ g @ u_b.conj()) * (u_a.conj().T @ r @ u_b)).reshape(len(g), -1))
            start += p * q
        return np.concatenate(omega), np.concatenate(amp, axis=1)


def assemble(spec: SpinSystemSpec, names) -> TraceSystem:
    """Build H, the initial state and the named observables, and keep their trace block.

    The blocks of :func:`trace_block` come from the supports: ``rho0`` sets
    ``rho[s, s ^ f]`` for every state s and single bit f, and the trace
    form of Q reads ``rho[i, j]`` where ``Q[j, i]`` is stored. ``rho0`` and
    the forms are then read at the block's coordinates only, so no vector
    of length ``4**n`` is built. No Liouvillian is built here either:
    :class:`TraceSystem` builds the form an engine asks for on first use.
    """
    if not names:
        raise ValueError("at least one observable is required")
    h = build_hamiltonian(spec)
    obs = {name: observable_by_name(name, spec.n) for name in names}
    components = hilbert_components(h)
    s, bit = np.divmod(np.arange(spec.n * spec.hilbert_dim), spec.n)
    reads = np.concatenate([q.csr.nonzero() for q in obs.values()], axis=1)[::-1]  # (col, row)
    pairs = _kept_pairs(components, (s, s ^ (1 << bit)), reads)
    i, j, _, _ = _block_layout(components, pairs)
    return TraceSystem(rho0=_initial_entries(i, j),
                       observables={name: q.entries(j, i) for name, q in obs.items()},
                       hamiltonian=h, components=components, pairs=pairs)
