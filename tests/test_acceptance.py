"""Acceptance suite: the eleven numbered contract criteria.

One test per criterion, named test_criterion_NN_*, so `pytest -v` prints
exactly one pass/fail line for each; a test that shows a criterion failing
on perturbed input has another name. Tolerances are the contract values,
not observed margins. Randomized criteria use string-seeded generators so
the draws are identical on every run and platform.
"""

import cmath
import math
import os
import random
import subprocess
import sys

import hypersum
from hypersum.operators import (
    _application_mass,
    build_R,
    kappa,
    r_image,
    verify_ode,
)
from hypersum.partial_sums import (
    Gn_by_recurrence,
    Gn_monic,
    HypParams,
    PowerSeriesCoeffs,
    gn_by_recurrence,
    gn_direct,
    hyp_coeff,
)
from hypersum.pfq import (
    integral_rep_circle_batch,
    integral_rep_negative_axis,
    integral_rep_negative_axis_numeric,
)
from hypersum.ri_pencils import (
    JacobiPencil,
    RIRecurrence,
    chebyshev_eval,
    kernel_decompose,
    pencil_polynomials,
    pencil_residual,
    pencil_row_terms,
    ri_generate,
    tfraction_from_hyp,
)
from hypersum.roots import location_report
from hypersum.sobolev import (
    QuadratureRule,
    auto_node_count,
    build_sobolev_form,
    monomial_quadrature_defect,
    sobolev_gram,
)

EXP = HypParams(a=(), b=())

# Fixed representative parameter sets for the criteria that name none.
FIXED_SETS = (
    HypParams(a=(), b=()),
    HypParams(a=(1.0,), b=()),
    HypParams(a=(2.0,), b=(4.0,)),
    HypParams(a=(1 + 0.5j, 3.0), b=(2 + 0.5j, 4.0)),
)

# Sets for the orthogonality criterion, restricted to families whose
# |kappa_15|^{-2} stays above the squared roundoff of applying R (see
# test_criterion_03 for the floor analysis).
SOBOLEV_SETS = (
    HypParams(a=(), b=()),
    HypParams(a=(1.0,), b=()),
    HypParams(a=(1.0, 2.0), b=(3.0,)),
    HypParams(a=(1 + 1j, 2.0), b=(2.0,)),
)


def _valid_param(rng: random.Random) -> float:
    # Any positive value clears the exclusion set {0, -1, -2, ...};
    # negative values must keep clear of the integers.
    while True:
        x = rng.uniform(-3.0, 4.0)
        if x > 0.05 or abs(x - round(x)) > 0.05:
            return x


def _draw_params(rng: random.Random) -> HypParams:
    p = rng.randint(0, 3)
    q = rng.randint(0, 3)
    return HypParams(
        a=tuple(_valid_param(rng) for _ in range(p)),
        b=tuple(_valid_param(rng) for _ in range(q)),
    )


def _assert_coeffwise(f, h, rel):
    deg = max(f.degree, h.degree)
    for k in range(deg + 1):
        x, y = f.coeff(k), h.coeff(k)
        assert abs(x - y) <= rel * max(abs(x), abs(y), 1e-300), (
            f"coefficient {k}: {x} vs {y}"
        )


def _assert_coeffwise_scaled(f, h, rel):
    # Deviations measured against the pair's largest coefficient modulus.
    # The monic recurrence cancels like-sized terms at every step, so its
    # deeply subdominant coefficients carry roundoff of order eps times the
    # polynomial scale; a per-coefficient relative measure on those digits
    # would test conditioning, not the identity.
    deg = max(f.degree, h.degree)
    scale = max(
        max(abs(f.coeff(k)) for k in range(deg + 1)),
        max(abs(h.coeff(k)) for k in range(deg + 1)),
        1e-300,
    )
    for k in range(deg + 1):
        x, y = f.coeff(k), h.coeff(k)
        assert abs(x - y) <= rel * scale, f"coefficient {k}: {x} vs {y}"


def test_criterion_01_recurrence_equivalence():
    # 200 seeded draws, 0 <= p,q <= 3, n <= 25: direct vs recurrence for
    # g_n and G_n, coefficientwise to relative 1e-10. The g comparison is
    # per-coefficient relative; the G comparison is relative to the
    # polynomial's coefficient scale (the monic three-term recurrence
    # cannot carry per-coefficient relative accuracy on coefficients that
    # are cancellation-dominated in double precision).
    rng = random.Random("acceptance:1")
    for _ in range(200):
        params = _draw_params(rng)
        n = rng.randint(1, 25)
        gs = gn_by_recurrence(params, n)
        Gs = Gn_by_recurrence(params, n)
        for k in range(n + 1):
            _assert_coeffwise(gs[k], gn_direct(params, k), 1e-10)
            _assert_coeffwise_scaled(Gs[k], Gn_monic(params, k), 1e-10)


def test_criterion_02_ode_identity():
    # theta(R g_n) = n R g_n to scaled 1e-9, and -kappa_n R g_n = z^n with
    # off-monomial mass <= scaled 1e-9, same draw regime as criterion 1.
    # Both scales are the coefficient mass op_apply moves when forming
    # R g_n: the exact image z^n/kappa_n can sit below the roundoff of the
    # cancellation producing it, so raw residuals would measure
    # conditioning instead of the identities.
    rng = random.Random("acceptance:2")
    for _ in range(200):
        params = _draw_params(rng)
        n = rng.randint(1, 25)
        R = build_R(params)
        g = gn_direct(params, n)
        mass_scale = _application_mass(R, g)
        assert verify_ode(params, n).max_coeff() <= 1e-9 * max(
            1.0, n * mass_scale
        )
        mono = r_image(params, n)
        mass = math.fsum(
            abs(mono.coeff(k) - (1.0 if k == n else 0.0))
            for k in range(max(mono.degree, n) + 1)
        )
        assert mass <= 1e-9 * max(1.0, abs(kappa(params, n)) * mass_scale)


def test_criterion_03_sobolev_orthogonality():
    # Gram of g_0..g_15: off-diagonal <= 1e-10 x max diagonal, diagonal
    # equals |kappa_n|^{-2} to relative 1e-9; monomial quadrature exactness
    # at 1e-14. Sets are chosen where the strict diagonal clause is within
    # reach of double precision: applying R leaves absolute coefficient
    # noise of order eps, which enters the diagonal squared, so families
    # whose |kappa_15|^{-2} falls below ~1e-25 (p < q, and p = q with
    # fast-growing kappa) cannot certify relative 1e-9 at n = 15.
    for params in SOBOLEV_SETS:
        gram = sobolev_gram(params, 15)
        maxdiag = max(abs(gram[i][i]) for i in range(16))
        for i in range(16):
            for j in range(16):
                if i != j:
                    assert abs(gram[i][j]) <= 1e-10 * maxdiag
        for i in range(16):
            want = 1.0 / abs(kappa(params, i)) ** 2
            assert abs(abs(gram[i][i]) - want) <= 1e-9 * want
        R = build_sobolev_form(params)
        N = auto_node_count(15, R.order)
        rule = QuadratureRule(N)
        for k in range(7):
            for m in range(7):
                assert monomial_quadrature_defect(rule, k, m) <= 1e-14
        assert monomial_quadrature_defect(rule, N - 1, 0) <= 1e-14


def test_criterion_04_circle_representation():
    # p <= q draws, n <= 10, 16 random angles: quadrature matches direct
    # evaluation within 1e-8.
    rng = random.Random("acceptance:4")
    for _ in range(12):
        q = rng.randint(0, 3)
        p = rng.randint(0, q)
        params = HypParams(
            a=tuple(_valid_param(rng) for _ in range(p)),
            b=tuple(_valid_param(rng) for _ in range(q)),
        )
        taus = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(16)]
        ns = list(range(11))
        got = integral_rep_circle_batch(params, ns, taus)
        for n in ns:
            g = gn_direct(params, n)
            for j, tau in enumerate(taus):
                want = g(cmath.exp(1j * tau))
                assert abs(got[n][j] - want) <= 1e-8


def test_criterion_05_axis_representation():
    # Termwise-exact path matches g_n(x) to relative 1e-10 for n <= 20 and
    # x in {-0.1, -1, -10}; numeric quadrature cross-check within 1e-6.
    # Where g_n(x) is an exact zero (alternating sums can cancel exactly),
    # relative deviation is undefined; the term sum's magnitude stands in
    # as the scale.
    for params in FIXED_SETS:
        for n in range(1, 21):
            g = gn_direct(params, n)
            for x in (-0.1, -1.0, -10.0):
                direct = g(x)
                term = integral_rep_negative_axis(params, n, x)
                if direct == 0:
                    msum = math.fsum(
                        abs(hyp_coeff(params, k)) * abs(x) ** k
                        for k in range(n + 1)
                    )
                    assert abs(term) <= 1e-10 * msum
                else:
                    assert abs(term - direct) <= 1e-10 * abs(direct)
                quad = integral_rep_negative_axis_numeric(params, n, x)
                assert abs(term - quad) <= 1e-6 * max(1.0, abs(direct))


def test_criterion_06_zero_localization():
    # 200 draws with 0 < a_j <= b_j, b_k >= 1, p <= q, 2 <= n <= 25:
    # simple roots, moduli >= 1 - 1e-9, none within 1e-8 of (1, oo),
    # product reconstruction <= 1e-8; plus the boundary case.
    rng = random.Random("acceptance:6")
    for _ in range(200):
        q = rng.randint(0, 3)
        p = rng.randint(0, q)
        b = tuple(rng.uniform(1.0, 4.0) for _ in range(q))
        a = tuple(rng.uniform(0.05, b[j]) for j in range(p))
        params = HypParams(a=a, b=b)
        n = rng.randint(2, 25)
        report = location_report(params, n)
        assert report.simple
        assert report.min_modulus >= 1 - 1e-9
        assert not report.positive_real_root_found
        prod = 1 + 0j
        for r in report.roots:
            prod *= r
        g = gn_direct(params, n)
        target = (-1) ** n * g.coeff(0) / g.coeff(n)
        assert abs(prod - target) <= 1e-8 * abs(target)
    boundary = location_report(EXP, 1)
    assert abs(boundary.min_modulus - 1.0) <= 1e-12


def test_criterion_07_convergence():
    # sup over 64 circle points of |g_20 - e^z| below 1e-15; geometric tail
    # |g_10(0.5) - 2| = 2 * 0.5^11 within 1e-12.
    g20 = gn_direct(EXP, 20)
    sup = max(
        abs(g20(z) - cmath.exp(z))
        for z in (cmath.exp(2j * math.pi * j / 64) for j in range(64))
    )
    assert sup < 1e-15
    geometric = HypParams(a=(1.0,), b=())
    g10 = gn_direct(geometric, 10)
    assert abs(abs(g10(0.5) - 2.0) - 2 * 0.5 ** 11) <= 1e-12


def _criterion_08_cases() -> list[HypParams]:
    rng = random.Random("acceptance:8")
    return list(FIXED_SETS[:3]) + [_draw_params(rng) for _ in range(10)]


def _assert_tfraction_reproduces_monic_sums(params, tfraction):
    N = 25
    polys, validity = ri_generate(tfraction(params, N), N)
    assert validity.valid
    for n_idx in range(N + 1):
        _assert_coeffwise_scaled(polys[n_idx], Gn_monic(params, n_idx), 1e-12)


def test_criterion_08_tfraction_reproduces_monic_sums():
    # ri_generate on tfraction_from_hyp equals the direct Gn_monic for
    # N <= 25 at 1e-12, relative to the pair's coefficient scale as in
    # criterion 1; validity report is clean (lambda_{n+1} != 0 and
    # P_n(0) != 0).
    for params in _criterion_08_cases():
        _assert_tfraction_reproduces_monic_sums(params, tfraction_from_hyp)


def _tfraction_with_scaled_delta_1(params, N):
    """tfraction_from_hyp with delta_1 (c_1 = -delta_1, lambda_2 = delta_1)
    scaled by 1 + 1e-10, 100 times criterion 8's tolerance."""
    rec = tfraction_from_hyp(params, N)
    c, lam = list(rec.c), list(rec.lam)
    c[0] *= 1 + 1e-10
    lam[1] *= 1 + 1e-10
    return RIRecurrence(c=c, lam=lam, a=rec.a)


def test_a_perturbed_delta_fails_criterion_08():
    # Criterion 8 compares two independent routes, so it can fail.
    for params in _criterion_08_cases():
        try:
            _assert_tfraction_reproduces_monic_sums(params, _tfraction_with_scaled_delta_1)
        except AssertionError:
            continue
        raise AssertionError(f"criterion 8 holds with delta_1 perturbed: {params}")


def test_criterion_09_pencil_residual():
    # pencil_residual <= 1e-10 x scale at 20 random lambda per pencil,
    # N <= 12; worked example p_2 = lambda^2 exact.
    rng = random.Random("acceptance:9")
    for _ in range(20):
        N = rng.randint(2, 12)
        m = N + 2
        pencil = JacobiPencil(
            j3_diag=tuple(rng.uniform(-2, 2) for _ in range(m)),
            j3_offdiag=tuple(rng.uniform(0.1, 2) for _ in range(m)),
            j5_diag=tuple(rng.uniform(-2, 2) for _ in range(m)),
            j5_off1=tuple(rng.uniform(-2, 2) for _ in range(m)),
            j5_off2=tuple(rng.uniform(0.1, 2) for _ in range(m)),
            alpha=rng.uniform(0.1, 2),
            beta=rng.uniform(-2, 2),
        )
        polys = pencil_polynomials(pencil, N)
        rows = N - 1
        for _ in range(20):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            values = [f(lam) for f in polys]
            scale = max(
                [1.0]
                + [
                    sum(abs(t) for t in pencil_row_terms(pencil, values, lam, r))
                    for r in range(rows)
                ]
            )
            assert pencil_residual(pencil, polys, lam, rows) <= 1e-10 * scale
    worked = JacobiPencil(
        j3_diag=(0.0,),
        j3_offdiag=(1.0,),
        j5_diag=(0.0,),
        j5_off1=(0.0,),
        j5_off2=(1.0,),
        alpha=1.0,
        beta=0.0,
    )
    assert pencil_polynomials(worked, 2)[2].coeffs == (0j, 0j, 1 + 0j)


def test_criterion_10_kernel_decompositions():
    # Re/Im Chebyshev identities at 32 angles to 1e-10 for random positive
    # coefficient sequences in (0, 3], n <= 20.
    rng = random.Random("acceptance:10")
    for _ in range(20):
        n = rng.randint(0, 20)
        d = PowerSeriesCoeffs(
            d=tuple(rng.uniform(1e-9, 3.0) for _ in range(n + 2))
        )
        dec = kernel_decompose(d, n)
        for _ in range(32):
            tau = rng.uniform(1e-6, math.pi - 1e-6)
            x = math.cos(tau)
            f = complex(0.0)
            for k in range(n + 2):
                f += d.d[k] * cmath.exp(1j * k * tau)
            f_n = f - d.d[n + 1] * cmath.exp(1j * (n + 1) * tau)
            re_sum = math.fsum(
                dec.t_coeffs[k] * chebyshev_eval("first", k, x)
                for k in range(n + 1)
            )
            im_sum = math.sin(tau) * math.fsum(
                dec.u_coeffs[j] * chebyshev_eval("second", j, x)
                for j in range(n + 1)
            )
            assert abs(f_n.real - re_sum) <= 1e-10
            assert abs(f.imag - im_sum) <= 1e-10


def test_criterion_11_cli_determinism():
    # Two runs of the full verify suite on the exponential case are
    # byte-identical and exit 0.
    args = [
        sys.executable, "-m", "hypersum", "verify", "--p", "0", "--q", "0",
        "--check", "all", "--seed", "7",
    ]
    # The children import the same hypersum package as this test.
    package_parent = os.path.dirname(os.path.dirname(hypersum.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")])
    )
    first = subprocess.run(args, capture_output=True, env=env, timeout=300)
    second = subprocess.run(args, capture_output=True, env=env, timeout=300)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty document
