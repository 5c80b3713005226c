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

import numpy as np
import scipy.linalg

from .errors import ConfigError
from .sparse import SparseMatrix
from .spectral import INFLATION_FLOOR, ScalingParams
from .trace import normalize_observables

__all__ = [
    "SpinOperatorSet",
    "SpinSystemSpec",
    "spin_half",
    "embed",
    "build_hamiltonian",
    "build_liouvillian",
    "hilbert_components",
    "trace_block",
    "TraceSystem",
    "assemble",
    "initial_state",
    "observable_ip",
    "observable_by_name",
]

#: Relative outward padding of :meth:`TraceSystem.spectral_interval`, against
#: ``eigvalsh`` roundoff and the rounding of the rescaled operator's entries.
SECTOR_PAD = 1e-12

#: Largest spin count whose Liouville dimension ``4**n`` fits in a 64-bit index.
MAX_SPINS = 31


@dataclass(frozen=True)
class SpinOperatorSet:
    """The three Cartesian spin-1/2 operators as dense 2x2 arrays."""

    ix: np.ndarray
    iy: np.ndarray
    iz: np.ndarray

    @property
    def ip(self) -> np.ndarray:
        """Shift-up operator ``Ix + i*Iy``."""
        return self.ix + 1j * self.iy


def spin_half() -> SpinOperatorSet:
    return SpinOperatorSet(
        ix=np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128),
        iy=np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=np.complex128),
        iz=np.array([[0.5, 0.0], [0.0, -0.5]], dtype=np.complex128),
    )


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


def embed(op: np.ndarray, site: int, n: int) -> SparseMatrix:
    """Single-site operator extended with identities: ``Id (x) op (x) Id``."""
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for {n} spins")
    return _site_sum(op, (site,), n)


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
    if not rows:
        return SparseMatrix.zeros(2**n)
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
    on coordinates ``i + j*dim``. ``blocks`` is ``(label, pairs)`` as
    :func:`_kept_pairs` returns it: the operator is then the one on those
    blocks, in the layout of :func:`_block_layout`, equal to
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
    counts = np.diff(h.row_offsets)
    rows = np.repeat(np.arange(h.nrows), counts)
    cols = h.col_indices
    label = np.arange(h.nrows)
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, cols, label[rows])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def _kept_pairs(h: SparseMatrix, rho0: np.ndarray, w_rows: np.ndarray):
    """Component labels of ``h`` and the kept (a, b) pairs of :func:`trace_block`.

    Returns ``(label, pairs)``: the labels of :func:`hilbert_components` and
    a ``(k, 2)`` array of component labels, ordered by ``a * dim + b``.
    """
    dim = h.nrows
    label = hilbert_components(h)

    def blocks(support):
        p = np.flatnonzero(support)
        return np.unique(label[p % dim] * dim + label[p // dim])

    source = blocks(rho0)
    kept = np.intersect1d(source, blocks(np.any(w_rows != 0, axis=0)))
    if kept.size == 0:
        kept = source
    return label, np.column_stack([kept // dim, kept % dim])


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
    ``assemble`` builds.
    """
    return _block_index(*_kept_pairs(h, rho0, w_rows))


def _block_index(label: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Liouville coordinates of the blocks of ``pairs``, in :func:`_block_layout` order."""
    i, j, _, _ = _block_layout(label, pairs)
    return i + j * label.shape[0]


def initial_state(n: int) -> np.ndarray:
    """Vectorised ``-sum_j Iy_j``, the state right after an x pulse.

    Built from the bits of the basis index: ``-Iy_j`` links state s to s
    with site j's bit flipped, with entry ``i/2`` where that bit is clear
    (spin up) and ``-i/2`` where it is set.
    """
    if n < 1:
        raise ValueError("need at least one spin")
    dim = 2**n
    states = np.arange(dim)
    rho = np.zeros(dim * dim, dtype=np.complex128)
    for j in range(n):
        flip = 1 << (n - 1 - j)
        rho.imag[states + (states ^ flip) * dim] = np.where(states & flip, -0.5, 0.5)
    return rho


def observable_ip(n: int) -> SparseMatrix:
    """Total shift-up operator ``sum_j (Ix_j + i*Iy_j)``; its trace against
    the evolving state is the detected free-induction signal."""
    if n < 1:
        raise ValueError("need at least one spin")
    return _site_sum(spin_half().ip, range(n), n)


def observable_by_name(name: str, n: int) -> SparseMatrix:
    """Resolve observables named in configs.

    Totals: ``ip``, ``ix``, ``iy``, ``iz``. Site-resolved variants use a
    colon suffix, e.g. ``ip:0`` or ``iz:3``.
    """
    ops = spin_half()
    table = {"ip": ops.ip, "ix": ops.ix, "iy": ops.iy, "iz": ops.iz}
    base, _, site_txt = name.strip().lower().partition(":")
    if base not in table:
        raise ConfigError(f"unknown observable {name!r}; expected one of {sorted(table)}")
    if not site_txt:
        return _site_sum(table[base], range(n), n)
    try:
        site = int(site_txt)
    except ValueError as exc:
        raise ConfigError(f"bad site index in observable {name!r}") from exc
    if not 0 <= site < n:
        raise ConfigError(f"observable {name!r}: site must be in [0, {n})")
    return embed(table[base], site, n)


@dataclass(frozen=True)
class TraceSystem:
    """What an engine propagates: operator, state and trace forms on one block.

    ``l_op`` is the Liouvillian on the coordinates kept by
    :func:`trace_block`, in its order, and ``rho0`` and every trace form in
    ``observables`` (label -> 1-D array) are restricted to them. Engines run
    on these unchanged and return the same expectations as on the full
    space. ``hamiltonian``, ``components`` (its :func:`hilbert_components`
    labels) and ``pairs`` (the kept component pairs, one row each) define
    the block: pair k's block ``X_ab`` is column-stacked in the k-th slice
    of every vector. :meth:`spectral_interval` reads the exact spectrum off
    them.
    """

    l_op: SparseMatrix
    rho0: np.ndarray
    observables: dict
    hamiltonian: SparseMatrix
    components: np.ndarray
    pairs: np.ndarray

    @property
    def block_dim(self) -> int:
        return self.l_op.nrows

    def spectral_interval(self) -> ScalingParams:
        """Exact spectral interval of ``l_op``, read off the sectors of H.

        On the block of pair (a, b), ``L`` maps ``X`` to ``H_a X - X H_b``,
        where ``H_a`` is H on component a, so its eigenvalues are
        ``lambda_i(H_a) - lambda_j(H_b)``. ``eigvalsh`` on each sector of a
        pair (the diagonal entry for a single state) gives the exact
        extremes. The interval is padded outward by ``SECTOR_PAD`` times its
        largest endpoint modulus, which covers ``eigvalsh`` roundoff and the
        rounding of the rescaled entries ``L/D - S/D``, plus
        ``INFLATION_FLOOR``, which keeps the half-width positive when the
        spectrum is a single point.
        """
        h = self.hamiltonian.csr
        order, bounds, rank = _sectors(self.components)
        size = np.diff(bounds)
        low = np.array(h.diagonal().real)
        high = low.copy()
        for c in np.unique(self.pairs):
            if size[c] > 1:
                # H only links states of one component: the rows of c's
                # states hold its whole sector
                k, col, val = _row_entries(h, order[bounds[c]:bounds[c + 1]])
                block = np.zeros((size[c], size[c]), dtype=h.dtype)
                block[k, rank[col]] = val
                ev = scipy.linalg.eigvalsh(block if np.any(block.imag) else block.real,
                                           check_finite=False)
                low[c], high[c] = ev[0], ev[-1]
        a, b = self.pairs[:, 0], self.pairs[:, 1]
        beta = float(np.min(low[a] - high[b]))
        alpha = float(np.max(high[a] - low[b]))
        pad = SECTOR_PAD * max(abs(alpha), abs(beta)) + INFLATION_FLOOR
        return ScalingParams.from_bounds(alpha=alpha + pad, beta=beta - pad)


def assemble(spec: SpinSystemSpec, names) -> TraceSystem:
    """Build H, the initial state and the named observables, and keep their trace block."""
    h = build_hamiltonian(spec)
    rho0 = initial_state(spec.n)
    labels, w_rows = normalize_observables(
        {name: observable_by_name(name, spec.n) for name in names}, spec.liouville_dim)
    components, pairs = _kept_pairs(h, rho0, w_rows)
    index = _block_index(components, pairs)
    return TraceSystem(l_op=build_liouvillian(h, (components, pairs)), rho0=rho0[index],
                       observables={label: w[index] for label, w in zip(labels, w_rows)},
                       hamiltonian=h, components=components, pairs=pairs)
