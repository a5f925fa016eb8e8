"""Acceptance criteria, one per numbered requirement, at stated budgets.

Each criterion prints one PASS/FAIL line (run with -s to see them live).
All numeric assertions are exact; the only tolerances are the wall-clock
budgets.  Criterion 7 asserts the dimension-6 closure order 124416 =
192*2592/4: tensoring CL(2) and CL(3) identifies their common mu_4
scalars, so the matrix group is a central product, not the abstract
direct product of order 192*2592.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import conftest
import finiteqm.cli as cli
from finiteqm.cyclotomic import Cyclotomic, conductor_for, zeta
from finiteqm.decomposition import (
    clifford_product_check,
    crt_permutation,
    crt_split,
    energy_fraction_identity,
)
from finiteqm.mub import extract_mubs_from_orbit, mub_complete_set, verify_mub
from finiteqm.qgroups import (
    center_of,
    clifford_generators,
    clifford_group,
    displacement,
    fourier_matrix,
    group_closure,
    kron,
    symplectic_form,
    wh_generators,
    wh_group,
)
from finiteqm.rays import Ray, apply, ontic_ray, transition_probability
from finiteqm.states import (
    generate_states,
    seed_orbit,
    verify_requirements,
)


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {number} FAIL: {label} ({time.time() - start:.1f}s)"
        print(line)
        conftest.acceptance_lines.append(line)
        raise
    elapsed = time.time() - start
    line = f"ACCEPTANCE {number} PASS: {label} ({elapsed:.1f}s)"
    print(line)
    conftest.acceptance_lines.append(line)
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_criterion_1_group_orders():
    with criterion(1, "group orders", 5.0):
        assert wh_group(2).order == 16
        assert wh_group(3).order == 27
        assert clifford_group(2).order == 192
        assert clifford_group(3).order == 2592
        assert clifford_group(2, projective=True).order == 24
        assert clifford_group(3, projective=True).order == 216


def test_criterion_2_centers():
    with criterion(2, "scalar subgroups mu_8 and mu_12", 5.0):
        assert set(center_of(clifford_group(2))) == {
            zeta(24, 3 * k) for k in range(8)
        }
        assert set(center_of(clifford_group(3))) == {
            zeta(24, 2 * k) for k in range(12)
        }


def test_criterion_3_relations():
    with criterion(3, "defining relations incl. composition law", 5.0):
        for n in (2, 3, 4):
            m = conductor_for(n)
            tau, x, z = wh_generators(n)
            omega = zeta(m, m // n)
            assert (z @ x) == (x @ z).scale(omega)
            f = fourier_matrix(n)
            assert f.is_unitary()
            assert (f @ x @ f.dagger()) == z
            disp = {
                (p1, p2): displacement(n, p1, p2)
                for p1 in range(n)
                for p2 in range(n)
            }
            full = {
                (p1, p2): displacement(n, p1, p2)
                for p1 in range(2 * n)
                for p2 in range(2 * n)
            }
            for (p1, p2), (q1, q2) in itertools.product(disp, repeat=2):
                sigma = symplectic_form((p1, p2), (q1, q2), n)
                lhs = disp[(p1, p2)] @ disp[(q1, q2)]
                rhs = full[(p1 + q1, p2 + q2)].scale(tau**sigma)
                assert lhs == rhs


def test_criterion_4_mub():
    with criterion(4, "unbiased bases and orbit extraction", 10.0):
        for p, ell in ((2, 1), (3, 1), (2, 2), (5, 1)):
            n = p**ell
            bs = mub_complete_set(p, ell)
            assert len(bs.bases) == n + 1
            report = verify_mub(bs)
            assert report.ok, report.violations[:3]
            for bi in range(len(bs.bases)):
                for bj in range(bi + 1, len(bs.bases)):
                    for u in bs.bases[bi]:
                        for v in bs.bases[bj]:
                            assert transition_probability(u, v).rational() == (
                                Fraction(1, n)
                            )
        assert len(extract_mubs_from_orbit(seed_orbit(2)).bases) == 3
        assert len(extract_mubs_from_orbit(seed_orbit(3)).bases) == 4


def _octahedron():
    m = conductor_for(2)
    one = Cyclotomic.one(m)
    i = zeta(m, 6)
    return {
        ontic_ray(2, 0, m),
        ontic_ray(2, 1, m),
        Ray([one, one]),
        Ray([one, -one]),
        Ray([one, i]),
        Ray([one, -i]),
    }


def test_criterion_5_states_dim2():
    with criterion(5, "dimension-2 generation: 6 / 48 / 24 / 16x24", 120.0):
        ss = generate_states(2, 2)
        assert set(r for r, g in ss.states.items() if g == 0) == _octahedron()
        step1 = ss.reports[1]
        assert step1.deduped_candidates == 48
        assert step1.kept == 24
        assert step1.rejected == 24  # half of the candidates
        assert step1.orbit_sizes == [24]
        step2 = ss.reports[2]
        assert step2.orbit_sizes == [24] * 16
        assert len(ss) == 414


def _twelve():
    m = conductor_for(3)
    w = zeta(m, 8)
    one = Cyclotomic.one(m)
    out = {ontic_ray(3, k, m) for k in range(3)}
    out |= {Ray([one, w**a, w**b]) for a in range(3) for b in range(3)}
    return out


def test_criterion_6_states_dim3():
    with criterion(6, "dimension-3 generation: 12 / 153 in 9+36+108", 120.0):
        ss = generate_states(3, 1)
        assert set(r for r, g in ss.states.items() if g == 0) == _twelve()
        step1 = ss.reports[1]
        assert step1.kept == 153
        assert step1.new_states == 153
        assert step1.orbit_sizes == [9, 36, 108]
        assert len(ss) == 165


def test_criterion_7_crt_maps_and_energy():
    with criterion(7, "CRT alignment and energy additivity", 60.0):
        split = crt_split(6)
        m = conductor_for(6)
        p = crt_permutation(split)
        _, x6, _ = wh_generators(6)
        _, x2, _ = wh_generators(2, m)
        _, x3, _ = wh_generators(3, m)
        assert (p @ x6 @ p.dagger()) == kron(x2, x3)
        for n in range(2, 101):
            s = crt_split(n)
            for k in range(n):
                assert energy_fraction_identity(k, s)


def test_criterion_7_projective_fallback():
    with criterion(7, "order-only projective fallback", 60.0):
        rep = clifford_product_check(6, mode="projective")
        assert rep.projective_global_order == 5184
        assert rep.projective_matches
        assert all(rep.generators_in_tensor_group.values())


def test_criterion_7_dim6_closure_order_as_specified():
    # The dimension-6 Clifford group is the product of the dimension-2 and
    # dimension-3 groups, as a matrix group a central product of order
    # 124416 = 192*2592/4, not the abstract direct product 497664 = 192*2592.
    #
    # Kernel of the tensor map: (lambda*I_2, mu*I_3) tensors to
    # lambda*mu*I_6, so CL(2) x CL(3) -> GL_6 has kernel
    # {(lambda, lambda^-1) : lambda in mu_8 & mu_12 = mu_4}, of order 4.
    # This holds in any field.
    #
    # Scalar bound: |CL(6)| = |PCL(6)| * |CL(6) & scalars|.  Appleby,
    # J. Math. Phys. 46, 052107 (2005), gives |PCL(N)| = N^2 |SL(2, Z_N)|,
    # so |PCL(6)| = 36 * 144 = 5184; Q(zeta_24) holds only 24 roots of
    # unity, so |CL(6)| <= 5184 * 24 = 124416 < 497664.
    central = 192 * 2592 // 4
    label = "dimension-6 closure order is the central product 124416 = 192*2592/4"
    with criterion(7, label, 600.0):
        rep = clifford_product_check(6, mode="full")
        assert rep.mode == "full", (
            f"full closure fell back to mode {rep.mode!r}; the matrix order "
            f"was not measured"
        )
        assert rep.shift_tensor_ok and rep.clock_tensor_ok
        assert all(rep.generators_in_tensor_group.values()), (
            f"conjugated generators outside the tensored group: "
            f"{rep.generators_in_tensor_group}"
        )
        assert rep.naive_product == 192 * 2592
        assert rep.scalar_overlap == 4, (
            f"scalar overlap {rep.scalar_overlap}: the centres mu_8 and mu_12 "
            f"of CL(2) and CL(3) share mu_4 (local scalar orders "
            f"{rep.local_scalar_orders})"
        )
        assert rep.global_order == rep.tensor_group_order == central, (
            f"closure of the dimension-6 generating set has order "
            f"{rep.global_order} and the tensored local groups have order "
            f"{rep.tensor_group_order}; both must be the central product "
            f"192*2592/4 = {central}.  Tensoring identifies the mu_4 common "
            f"to the scalars mu_8 of CL(2) and mu_12 of CL(3), so the "
            f"abstract direct product 497664 = 192*2592 is unreachable"
        )
        assert rep.global_order == 5184 * 24, (
            f"order {rep.global_order} breaks the closed form "
            f"|PCL(6)| * |mu_24| = 5184 * 24: Q(zeta_24) holds only 24 "
            f"roots of unity"
        )
        assert rep.matches_central_product
        assert not rep.matches_naive_product


def test_criterion_8_property_suites():
    with criterion(8, "randomized property suites", 300.0):
        rng = random.Random(20260808)
        # orbit sizes divide the projective group order
        for n, pcl_order in ((2, 24), (3, 216)):
            ss = generate_states(n, 1)
            for orbit in ss.orbits:
                assert pcl_order % len(orbit) == 0
            reqs = verify_requirements(ss)
            assert all(reqs.values()), reqs
        # probability properties on random rays
        m = conductor_for(3)
        gens = list(clifford_generators(3).values())

        def random_ray():
            while True:
                amps = [
                    Cyclotomic.make(
                        m, [Fraction(rng.randint(-3, 3)) for _ in range(8)]
                    )
                    for _ in range(3)
                ]
                if any(not a.is_zero() for a in amps):
                    return Ray(amps)

        for _ in range(12):
            a, b = random_ray(), random_ray()
            p = transition_probability(a, b)
            assert transition_probability(b, a) == p
            scale = zeta(m, rng.randrange(24)) * Fraction(rng.randint(1, 5))
            assert transition_probability(Ray([x * scale for x in a.amps]), b) == p
            ua, ub = a, b
            for _ in range(3):
                g = rng.choice(gens)
                ua, ub = apply(g, ua), apply(g, ub)
            assert transition_probability(ua, ub) == p
            total = Cyclotomic.zero(m)
            for k in range(3):
                total = total + transition_probability(a, ontic_ray(3, k, m))
            assert total.rational() == 1
        # closure order independent of generator order
        gens2 = list(clifford_generators(2).values())
        shuffled = list(gens2)
        rng.shuffle(shuffled)
        assert group_closure(shuffled).order == group_closure(gens2).order
        # a shuffled starting set reaches the same state set
        start = conftest.shuffled_stateset(generate_states(2, 0), rng)
        assert set(generate_states(2, 1, initial=start).states) == set(
            generate_states(2, 1).states
        )


def test_criterion_9_calibration_transparency(capsys, monkeypatch):
    with criterion(9, "exact-count gate exits nonzero on mismatch", 120.0):
        code = cli.main(["cqs", "--dim", "2", "--steps", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["ok"]
        step1 = next(r for r in out["reports"] if r["step"] == 1)
        assert step1["deduped_candidates"] == 48 and step1["kept"] == 24
        code = cli.main(["cqs", "--dim", "3", "--steps", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["ok"]
        step1 = next(r for r in out["reports"] if r["step"] == 1)
        assert step1["kept"] == 153
        # a wrong target must flip the exit code and surface the counts
        monkeypatch.setitem(
            cli._EXPECTED_STEPS, (2, 1), {"deduped_candidates": 50}
        )
        code = cli.main(["cqs", "--dim", "2", "--steps", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and not out["ok"]
        failure = out["failures"][0]
        assert failure["actual"] == 48 and failure["expected"] == 50
        assert failure["counts"]["raw_candidates"] == 96
