"""Decomposition of a dimension-N system into coprime prime-power parts.

The index maps come in two flavors.  The forward map k -> (k mod n_i)
aligns the shift matrix with the tensor product of local shifts through
an explicit basis permutation.  The dual map k -> k * (N/n_i)^-1 mod n_i
is the unique indexing for which level fractions add: k/N is congruent
to the sum of k_i/n_i modulo 1, exactly.

The group-structure check closes both the global generating set and the
tensor products of the local ones.  Matrix tensor products identify
scalars common to the factors, so the expected matrix-group order is
prod |CL(n_i)| divided by the scalar overlap prod(c_i)/lcm(c_i), where
c_i is the order of the scalar subgroup of CL(n_i); the naive product is
reported alongside for comparison.  Projectively the decomposition is an
exact direct product, and a fast projective mode checks just that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .cyclotomic import _factorize, conductor_for
from .qgroups import (
    _DEFAULT_MAX_SIZE,
    GroupTable,
    UMatrix,
    center_of,
    clifford_generators,
    group_closure,
    kron,
    wh_generators,
)

__all__ = [
    "CrtSplit",
    "ProductCheckReport",
    "clifford_product_check",
    "crt_clock_exponents",
    "crt_permutation",
    "crt_split",
    "energy_decompose",
    "energy_fraction_identity",
]


@dataclass(frozen=True)
class CrtSplit:
    """Coprime prime-power factorization with both index maps."""

    n: int
    factors: tuple[int, ...]

    def forward(self, k: int) -> tuple[int, ...]:
        """Residue components (k mod n_i)."""
        return tuple(k % f for f in self.factors)

    def dual(self, k: int) -> tuple[int, ...]:
        """Components k * (N/n_i)^-1 mod n_i; these make energies add."""
        return tuple(
            k * pow(self.n // f, -1, f) % f for f in self.factors
        )

    def from_forward(self, comps) -> int:
        """Reconstruct k from forward components via CRT idempotents."""
        acc = 0
        for c, f in zip(comps, self.factors):
            cof = self.n // f
            acc += c * cof * pow(cof, -1, f)
        return acc % self.n

    def from_dual(self, comps) -> int:
        """Reconstruct k from dual components: sum k_i * (N/n_i) mod N."""
        return sum(c * (self.n // f) for c, f in zip(comps, self.factors)) % self.n

    def tensor_index(self, comps) -> int:
        """Mixed-radix index, first factor most significant."""
        idx = 0
        for c, f in zip(comps, self.factors):
            idx = idx * f + c
        return idx


def crt_split(n: int) -> CrtSplit:
    """Prime-power factorization of n, ascending primes, with maps."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return CrtSplit(n=n, factors=tuple(p**e for p, e in _factorize(n).items()))


def crt_permutation(split: CrtSplit, m: int | None = None) -> UMatrix:
    """Basis permutation P aligning |k> with the tensor basis.

    P|k> = |tensor_index(forward(k))>, so P X_N P^-1 equals the tensor
    product of the local shift matrices.
    """
    if m is None:
        m = conductor_for(split.n)
    return UMatrix.permutation(
        split.n,
        m,
        [split.tensor_index(split.forward(k)) for k in range(split.n)],
    )


def crt_clock_exponents(split: CrtSplit) -> tuple[int, ...]:
    """Exponents a_i with P Z_N P^-1 = tensor of Z_(n_i)^(a_i)."""
    return tuple(pow(split.n // f, -1, f) for f in split.factors)


def energy_decompose(k: int, split: CrtSplit) -> list[tuple[int, int]]:
    """Dual components (k_i, n_i); level fractions then add modulo 1."""
    if not 0 <= k < split.n:
        raise ValueError(f"level index {k} out of range for n={split.n}")
    return list(zip(split.dual(k), split.factors))


def energy_fraction_identity(k: int, split: CrtSplit) -> bool:
    """Exact check that k/N - sum(k_i/n_i) is an integer."""
    total = sum(
        (Fraction(ki, ni) for ki, ni in energy_decompose(k, split)),
        Fraction(0),
    )
    return (Fraction(k, split.n) - total).denominator == 1


def _tensored_generators(split: CrtSplit, m: int):
    """Local Clifford generators embedded as g acting on one tensor slot."""
    gens = []
    names = []
    idents = [UMatrix.identity(f, m) for f in split.factors]
    for i, f in enumerate(split.factors):
        for gname, g in clifford_generators(f, m).items():
            mat = None
            for j, ident in enumerate(idents):
                part = g if j == i else ident
                mat = part if mat is None else kron(mat, part)
            gens.append(mat)
            names.append(f"{gname}{f}")
    return gens, names


@dataclass
class ProductCheckReport:
    """Everything measured while checking the product structure."""

    n: int
    factors: tuple[int, ...]
    mode: str
    skipped: bool = False
    shift_tensor_ok: bool | None = None
    clock_tensor_ok: bool | None = None
    clock_exponents: tuple[int, ...] = ()
    local_orders: dict[int, int] = field(default_factory=dict)
    local_scalar_orders: dict[int, int] = field(default_factory=dict)
    naive_product: int | None = None
    scalar_overlap: int | None = None
    expected_matrix_order: int | None = None
    global_order: int | None = None
    matches_naive_product: bool | None = None
    matches_central_product: bool | None = None
    projective_global_order: int | None = None
    projective_product: int | None = None
    projective_matches: bool | None = None
    generators_in_tensor_group: dict[str, bool] = field(default_factory=dict)
    tensor_group_order: int | None = None
    # always None; kept so that the crt JSON stays byte-stable
    partial_global_order: int | None = None

    def to_json(self) -> dict:
        out = dict(self.__dict__)
        out["factors"] = list(self.factors)
        out["clock_exponents"] = list(self.clock_exponents)
        out["local_orders"] = {str(k): v for k, v in self.local_orders.items()}
        out["local_scalar_orders"] = {
            str(k): v for k, v in self.local_scalar_orders.items()
        }
        return out


def clifford_product_check(
    n: int,
    mode: str = "full",
    max_size: int = _DEFAULT_MAX_SIZE,
) -> ProductCheckReport:
    """Measure how the dimension-n Clifford group relates to its factors.

    full mode closes the global group and the tensor products of the
    local generators, conjugated back into the frame of X_n and Z_n by the
    basis permutation P, checks the global generators for membership, and
    compares orders: against the naive product of local orders and
    against the central-product value (naive divided by the scalar
    overlap).  projective mode closes only the projective groups, where
    the decomposition is an exact direct product.  Every generator set
    here carries the finiteness certificate, so each closure counts mod p,
    and max_size bounds each global and tensor closure's search of the
    group modulo scalars (ClosureCapError past it).  A single prime power
    factor makes the check a tautology; it is reported as skipped.
    """
    if mode not in ("full", "projective"):
        raise ValueError(f"mode must be 'full' or 'projective', got {mode!r}")
    split = crt_split(n)
    report = ProductCheckReport(n=n, factors=split.factors, mode=mode)
    if len(split.factors) < 2:
        report.skipped = True
        return report

    m = conductor_for(n)
    perm = crt_permutation(split, m)
    perm_inv = perm.dagger()

    # shift and clock tensor alignment, always checked
    _, x_n, z_n = wh_generators(n, m)
    shifts = [wh_generators(f, m)[1] for f in split.factors]
    tensor_shift = shifts[0]
    for s in shifts[1:]:
        tensor_shift = kron(tensor_shift, s)
    report.shift_tensor_ok = (perm @ x_n @ perm_inv) == tensor_shift

    exps = crt_clock_exponents(split)
    report.clock_exponents = exps
    clocks = [
        wh_generators(f, m)[2].matpow(a) for f, a in zip(split.factors, exps)
    ]
    tensor_clock = clocks[0]
    for c in clocks[1:]:
        tensor_clock = kron(tensor_clock, c)
    report.clock_tensor_ok = (perm @ z_n @ perm_inv) == tensor_clock

    # local groups at the global conductor; these are prerequisites for
    # stating the expected product, so the caller's cap does not gate them
    local_tables: dict[int, GroupTable] = {}
    for f in split.factors:
        gens = clifford_generators(f, m)
        local_tables[f] = group_closure(list(gens.values()), names=tuple(gens.keys()))
        report.local_orders[f] = local_tables[f].order
        report.local_scalar_orders[f] = len(center_of(local_tables[f]))

    naive = 1
    for f in split.factors:
        naive *= report.local_orders[f]
    overlap = 1
    for f in split.factors:
        overlap *= report.local_scalar_orders[f]
    overlap //= lcm(*report.local_scalar_orders.values())
    report.naive_product = naive
    report.scalar_overlap = overlap
    report.expected_matrix_order = naive // overlap

    global_gens = clifford_generators(n, m)
    tens_gens, tens_names = _tensored_generators(split, m)
    # P^-1 t P normalizes <X_n, Z_n>, so the tensor group closes mod p, and
    # g lies in it exactly when P g P^-1 lies in the group of the t
    tens_gens = [perm_inv @ t @ perm for t in tens_gens]

    if mode == "full":
        global_table = group_closure(
            list(global_gens.values()),
            names=tuple(global_gens.keys()),
            max_size=max_size,
        )
        report.global_order = global_table.order
        report.matches_naive_product = global_table.order == naive
        report.matches_central_product = (
            global_table.order == report.expected_matrix_order
        )
        tensor_table = group_closure(tens_gens, names=tens_names, max_size=max_size)
    else:
        pcl_global = group_closure(
            list(global_gens.values()),
            names=tuple(global_gens.keys()),
            projective=True,
            max_size=max_size,
        )
        report.projective_global_order = pcl_global.order
        proj_product = 1
        for f in split.factors:
            # |PCL(f)| = |CL(f)| / |scalars|, from the local tables above
            proj_product *= report.local_orders[f] // report.local_scalar_orders[f]
        report.projective_product = proj_product
        report.projective_matches = pcl_global.order == proj_product
        tensor_table = group_closure(
            tens_gens,
            names=tens_names,
            projective=True,
            max_size=max_size,
        )
    report.tensor_group_order = tensor_table.order
    for gname, g in global_gens.items():
        report.generators_in_tensor_group[gname] = tensor_table.contains(g)
    return report
