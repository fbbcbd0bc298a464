import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauforge import cli, hirota
from tauforge.fock import ModeWindow
from tauforge.hirota import (
    CheckReport,
    _report,
    _residue_total,
    kp_checks,
    kp_equation_check,
    kp_residue_check,
    mkp_equation_check,
    residue_check,
    scalar_kp_field_check,
    three_term_check_kp,
    three_term_check_mkp,
    three_term_check_toda,
    toda_equation_check,
)
from tauforge.grouplike import StateProjector
from tauforge.partitions import Partition
from tauforge.models import hamiltonian_families, hamiltonian_tau_eigen, unitary_model_tau
from tauforge.polyring import (
    Poly,
    TimeFamily,
    _Sum,
    paired_family,
    standard_double_family,
    standard_single_family,
)
from tauforge.sampling import (
    sample_bare_bilinear,
    sample_element,
    sample_exponent_bilinear,
    sample_soliton,
)
from tauforge.tau import expand_mkp, window_for_element

F = Fraction
W = ModeWindow(-14, 14)


def test_trivial_tau_passes_everything():
    fam, shift = paired_family(6)
    one = fam.one()
    assert kp_residue_check(one, fam, shift).ok
    assert kp_equation_check(one, fam).ok
    assert mkp_equation_check(one, one, fam).ok


def test_character_tau_is_kp():
    fam, shift = paired_family(7)
    for lam in (Partition([2, 1]), Partition([3, 1]), Partition([2, 2])):
        g = StateProjector(0, lam, 0, Partition([]))
        tau = expand_mkp(g, 0, fam, 7, W).poly
        rep = kp_residue_check(tau, fam, shift)
        assert rep.ok and rep.verified_weight == 6
        assert kp_equation_check(tau, fam).ok


def test_random_bilinear_families_pass_kp_and_mkp():
    rng = random.Random(3)
    fam, shift = paired_family(6)
    for make in (sample_exponent_bilinear, sample_bare_bilinear):
        g = make(rng)
        taus = {n: expand_mkp(g, n, fam, 6, W).poly for n in (-1, 0, 1)}
        for n in (-1, 0, 1):
            assert kp_residue_check(taus[n], fam, shift).ok, n
            assert kp_equation_check(taus[n], fam).ok, n
        for n in (-1, 0):
            assert mkp_equation_check(taus[n + 1], taus[n], fam).ok, n
            assert residue_check(taus[n + 1], taus[n], fam, shift, 1).ok, n


def test_kp_residue_counterexample_on_corruption():
    from tauforge.schur import schur_jt

    fam, shift = paired_family(5)
    g = sample_exponent_bilinear(random.Random(5))
    tau = expand_mkp(g, 0, fam, 5, W).poly
    for pert in (fam.time(2) * F(1, 7), schur_jt(fam, Partition([2, 2])) * F(1, 7)):
        broken = tau + pert
        rep = kp_residue_check(broken, fam, shift)
        assert not rep.ok and rep.counterexample is not None
        assert not kp_equation_check(broken, fam).ok
    assert kp_residue_check(tau, fam, shift).ok


def test_toda_trivial_family():
    plus, minus = standard_double_family(4, 4)
    quad = plus.zero()
    for k in range(1, 5):
        quad = quad + plus.time(k) * minus.time(k) * (-k)
    tau = quad.series_exp()  # charge independent for the empty element
    rep = toda_equation_check(tau, tau, tau, plus, minus)
    assert rep.ok


def test_three_term_single_trivial_and_character():
    fam = standard_single_family(6, extra_unit=["y1", "y2", "y3"])
    rep = three_term_check_kp({frozenset(): fam.one()}, fam, ("y1", "y2", "y3"))
    assert rep.ok
    g = StateProjector(0, Partition([2, 1]), 0, Partition([]))
    tau = expand_mkp(g, 0, fam, 6, W).poly
    rep = three_term_check_kp({frozenset(): tau}, fam, ("y1", "y2", "y3"))
    assert rep.ok and rep.verified_weight == 6


def test_three_term_charge_step():
    fam = standard_single_family(5, extra_unit=["y1", "y2"])
    rng = random.Random(7)
    g = sample_bare_bilinear(rng)
    tau0 = expand_mkp(g, 0, fam, 5, W).poly
    tau1 = expand_mkp(g, 1, fam, 5, W).poly
    rep = three_term_check_mkp(tau1, tau0, fam, ("y1", "y2"))
    assert rep.ok


def test_three_term_two_family_trivial():
    plus, minus = standard_double_family(
        4, 4, extra_unit_plus=["alpha"], extra_unit_minus=["b"]
    )
    quad = plus.zero()
    for k in range(1, 5):
        quad = quad + plus.time(k) * minus.time(k) * (-k)
    tau = quad.series_exp()
    rep = three_term_check_toda(tau, tau, tau, plus, minus, "alpha", "b")
    assert rep.ok


def test_scalar_kp_field_on_character():
    fam = standard_single_family(10)
    g = StateProjector(0, Partition([2, 1]), 0, Partition([]))
    tau = expand_mkp(g, 0, fam, 10, W).poly + fam.one() * 2  # shift away the zero constant
    # a character alone has zero constant term; the gauge shift breaks KP,
    # so use a group-element tau instead
    g2 = sample_exponent_bilinear(random.Random(11))
    tau2 = expand_mkp(g2, 0, fam, 10, W).poly
    if tau2.constant_term() == 0:
        tau2 = tau2 + 1
        raise AssertionError("seeded element unexpectedly has zero central value")
    rep = scalar_kp_field_check(tau2, fam)
    assert rep.ok and rep.verified_weight == 4


def test_three_term_four_point():
    from tauforge.hirota import three_term_check_kp4

    fam = standard_single_family(6, extra_unit=["y0", "y1", "y2", "y3"])
    assert three_term_check_kp4(fam.one(), fam, ("y0", "y1", "y2", "y3")).ok
    rng = random.Random(47)
    g = sample_exponent_bilinear(rng)
    tau = expand_mkp(g, 0, fam, 6, W).poly
    rep = three_term_check_kp4(tau, fam, ("y0", "y1", "y2", "y3"))
    assert rep.ok and rep.verified_weight == 6
    # negative control needs the pole-clearing degree budget: the cleared
    # identity sees time weight cutoff - 2, so corrupt at weight 2
    broken = tau + fam.time(2) * F(1, 9)
    assert not three_term_check_kp4(broken, fam, ("y0", "y1", "y2", "y3")).ok
    assert not three_term_check_kp({frozenset(): broken}, fam, ("y1", "y2", "y3")).ok


def _perturbed_charge_pairs(fam):
    """An mKP pair (tau_1, tau_0) and the pair with either side perturbed;
    a t1 term would be no perturbation: (tau_1 + c t1, tau_0) still solves
    the mKP equation for this element."""
    g = sample_exponent_bilinear(random.Random(5))
    up, down = (expand_mkp(g, n, fam, 6, W).poly for n in (1, 0))
    bump = fam.time(2) * F(1, 7)
    return (up, down), [(up + bump, down), (up, down + bump)]


def test_mkp_equation_fails_on_a_perturbed_series():
    fam, _ = paired_family(6)
    (up, down), broken = _perturbed_charge_pairs(fam)
    assert mkp_equation_check(up, down, fam).ok
    for bad_up, bad_down in broken:
        rep = mkp_equation_check(bad_up, bad_down, fam)
        assert not rep.ok and rep.counterexample is not None


def test_charge_step_residue_fails_on_a_perturbed_series():
    fam, shift = paired_family(6)
    (up, down), broken = _perturbed_charge_pairs(fam)
    assert residue_check(up, down, fam, shift, charge_gap=1).ok
    for bad_up, bad_down in broken:
        rep = residue_check(bad_up, bad_down, fam, shift, charge_gap=1)
        assert not rep.ok and rep.counterexample is not None


def test_single_series_residue_equals_the_two_series_branch():
    # residue_check(tau, tau) forms tau(t-a) tau(t+a) as E^2 - O^2 less the
    # a-free square; an equal copy as tau_right takes the general branch,
    # two shifts and one product
    import copy

    fam, shift = paired_family(7)
    rng = random.Random(13)
    for g in (sample_soliton(rng, 2), sample_exponent_bilinear(rng), sample_bare_bilinear(rng)):
        tau = expand_mkp(g, 0, fam, 7, W).poly
        for series in (tau, tau + fam.time(2) * F(1, 7), tau + fam.time(1) * fam.time(3)):
            twin = copy.copy(series)
            assert twin is not series and twin == series
            single = residue_check(series, series, fam, shift)
            assert single.to_json() == residue_check(series, twin, fam, shift).to_json()
            assert single.ok == (series is tau), g


# check name -> (least cutoff, the check run on the constant series 1)
LEAST_CUTOFFS = {
    "kp_equation": (4, lambda fam, shift: kp_equation_check(fam.one(), fam)),
    "mkp_equation": (2, lambda fam, shift: mkp_equation_check(fam.one(), fam.one(), fam)),
    "kp_residue": (1, lambda fam, shift: kp_residue_check(fam.one(), fam, shift)),
    "mkp_residue_gap5": (6, lambda fam, shift: residue_check(fam.one(), fam.one(), fam, shift, 5)),
    "scalar_kp_field": (6, lambda fam, shift: scalar_kp_field_check(fam.one(), fam)),
}


@pytest.mark.parametrize("name", LEAST_CUTOFFS)
def test_a_check_below_its_least_cutoff_refuses_to_run(name):
    # a negative weight to verify compares nothing, so it is no pass
    least, check = LEAST_CUTOFFS[name]
    refusal = f"{name} needs a cutoff of at least {least}, got {least - 1}"
    with pytest.raises(ValueError, match=refusal):
        check(*paired_family(least - 1))
    report = check(*paired_family(least))
    assert report.name == name and report.ok and report.verified_weight == 0


def test_toda_equation_below_its_least_cutoff_refuses_to_run():
    # a family of cutoff 0 has no time to differentiate by
    for cut_plus, cut_minus in ((0, 0), (0, 2), (2, 0)):
        plus, minus = standard_double_family(cut_plus, cut_minus)
        one = plus.one()
        with pytest.raises(ValueError, match="toda_equation needs a cutoff of at least 1, got 0"):
            toda_equation_check(one, one, one, plus, minus)
    plus, minus = standard_double_family(1, 1)
    triple = [unitary_model_tau(size, plus, minus, 1) for size in (1, 2, 3)]
    report = toda_equation_check(*triple, plus, minus)
    assert report.name == "toda_equation" and report.ok and report.verified_weight == 0


# -- the KP equation read off the residue total, against its own product ---------------


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 10**6),
    st.sampled_from(("element", "soliton")),
    st.integers(5, 9),
    st.booleans(),
    st.sampled_from(("as drawn", "plus t2/7", "plus t1^2/3 + t3", "plus y t2", "zero", "constant")),
)
@example(7, "soliton", 8, False, "as drawn")
@example(7, "element", 8, True, "plus y t2")
@example(11, "soliton", 5, False, "plus t1^2/3 + t3")
def test_kp_read_off_matches_the_bilinear_product(seed, source, depth, extra, variant):
    """`kp_checks` gives the entries of `kp_residue_check` and of
    `kp_equation_check`, whose KP residual is a product of its own, byte for
    byte: on sampled taus, corrupted ones, a constant and zero, on a family
    with a unit variable y beside the times and shifts."""
    fam, shift = paired_family(depth, extra_unit=("y",) if extra else ())
    rng = random.Random(seed)
    g = sample_soliton(rng, rng.randint(1, 2)) if source == "soliton" else sample_element(rng, False)
    tau = expand_mkp(g, 0, fam, depth, window_for_element(g, (0,), depth)).poly
    if variant == "plus t2/7":
        tau = tau + fam.time(2) * F(1, 7)
    elif variant == "plus t1^2/3 + t3":
        tau = tau + fam.time(1) ** 2 * F(1, 3) + fam.time(3)
    elif variant == "plus y t2" and extra:
        tau = tau + Poly.variable(fam.table, fam.cutoffs, "y") * fam.time(2)
    elif variant in ("zero", "constant"):
        tau = fam.zero() if variant == "zero" else fam.constant(F(-3, 2))
    got = [report.to_json() for report in kp_checks(tau, fam, shift)]
    want = [kp_residue_check(tau, fam, shift).to_json(), kp_equation_check(tau, fam).to_json()]
    assert got == want


def test_the_kp_suite_forms_one_residue_total_and_one_bilinear_product(monkeypatch, capsys):
    # the KP equation comes off the residue's total; only mkp_equation
    # forms a product of its own
    calls = []
    for name in ("_residue_total", "hirota_bilinear"):
        real = getattr(hirota, name)
        monkeypatch.setattr(
            hirota, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    assert cli.main("verify --suite kp --cutoff 8 --seed 3".split()) == 0
    assert sorted(calls) == ["_residue_total", "hirota_bilinear"]
    assert [r["check"] for r in json.loads(capsys.readouterr().out)["results"]] == [
        "kp_residue",
        "kp_equation",
        "mkp_equation",
    ]


def test_kp_read_off_refuses_below_the_kp_equation_cutoff():
    for depth, name, least in ((0, "kp_residue", 1), (3, "kp_equation", 4)):
        fam, shift = paired_family(depth)
        with pytest.raises(ValueError, match=f"{name} needs a cutoff of at least {least}, got"):
            kp_checks(fam.one(), fam, shift)
    fam, shift = paired_family(4)
    assert [r.verified_weight for r in kp_checks(fam.one(), fam, shift)] == [3, 0]


# -- the residue before `TimeFamily.miwa_parts`, kept as the reference ----------------


def reference_residue(
    tau_left: Poly, tau_right: Poly, family: TimeFamily, shift: TimeFamily, charge_gap: int
) -> tuple[Poly, CheckReport]:
    """The residue's unreduced total and its report, one `apply_diff` of
    h_j(d~_a) per j on the full product: for one series E^2 - O^2, with
    E and O the halves of tau(t+a) +- tau(t-a)."""
    depth = family.cutoffs[family.grading]
    plus = family.shift_by(tau_right, shift, +1)
    if tau_left is tau_right:
        minus = family.shift_by(tau_right, shift, -1)
        even, odd = (plus + minus) * F(1, 2), (plus - minus) * F(1, 2)
        product = even * even - odd * odd
    else:
        product = family.shift_by(tau_left, shift, -1) * plus
    total = _Sum(product.zero_like())
    for j in range(charge_gap + 1, depth + 2):
        derived = shift.apply_diff(shift.h(j), product)
        if derived.is_zero:
            continue
        factor = shift.h(j - charge_gap - 1, -2)
        total.add(factor * derived)
    name = "kp_residue" if charge_gap == 0 else f"mkp_residue_gap{charge_gap}"
    total = total.poly()
    return total, _report(name, total, depth - 1 - charge_gap, family.grading)


def _sampled_taus(seed: int, source: str, depth: int, hamiltonian: bool):
    """(family, shift, tau_0, tau_1): a sampled element's series at charges
    0 and 1, or on the Hamiltonian families (a "w" grading beside the
    times) the auxiliary-time tau and, as the second series of the
    two-series branch, that tau plus winv t_1."""
    rng = random.Random(seed)
    if hamiltonian:
        times, shift = hamiltonian_families(depth, rng.randint(1, 3))
        g = sample_exponent_bilinear(rng)
        tau = hamiltonian_tau_eigen(g, F(rng.randint(1, 5), 3), times, times.cutoffs["w"])
        winv = Poly.variable(times.table, times.cutoffs, "winv")
        return times, shift, tau, tau + winv * times.time(1)
    fam, shift = paired_family(depth)
    if source == "soliton":
        g = sample_soliton(rng, rng.randint(1, 2))
    else:
        g = sample_element(rng, allow_products=False)
    window = window_for_element(g, (-1, 0, 1), depth)
    taus = [expand_mkp(g, n, fam, depth, window).poly for n in (0, 1)]
    return fam, shift, *taus


@settings(deadline=None, max_examples=200)
@given(
    st.integers(0, 10**6),
    st.sampled_from(("element", "soliton")),
    st.integers(1, 8),
    st.booleans(),
    st.sampled_from(("as drawn", "corrupt", "zero", "constant")),
    st.integers(0, 2),
    st.sampled_from(("one series", "equal copy", "charge pair")),
)
@example(7, "soliton", 8, False, "as drawn", 0, "one series")
@example(7, "soliton", 8, False, "corrupt", 1, "charge pair")
@example(3, "element", 6, True, "corrupt", 0, "one series")
def test_residue_matches_the_operator_by_operator_reference(
    seed, source, depth, hamiltonian, variant, gap, branch
):
    fam, shift, tau, tau1 = _sampled_taus(seed, source, depth, hamiltonian)
    if variant == "corrupt":
        tau = tau + fam.time(min(2, depth)) * F(1, 7)
    elif variant != "as drawn":
        tau = fam.zero() if variant == "zero" else fam.constant(F(-3, 2))
    left, right = {
        "one series": (tau, tau),
        "equal copy": (tau, Poly.from_json(tau.to_json())),
        "charge pair": (tau1, tau),
    }[branch]
    if depth - 1 - gap < 0:
        with pytest.raises(ValueError, match="needs a cutoff of at least"):
            residue_check(left, right, fam, shift, gap)
        return
    want_total, want = reference_residue(left, right, fam, shift, gap)
    got_total = _residue_total(left, right, fam, shift, gap)
    assert got_total == want_total and got_total.cutoffs == want_total.cutoffs
    assert residue_check(left, right, fam, shift, gap).to_json() == want.to_json()
