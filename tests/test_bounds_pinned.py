"""Pinned certificate bits: every breakdown of every certificate kind.

The expected tuples were produced by the calculators before their breakdown
code was merged into one builder; they are compared with ``==`` and by
``repr`` (which also tells +0.0 from -0.0), so any change to a certificate's
arithmetic or its operation order shows up here.  The grid covers c = 0, an
explicit ``log_prior_j`` and a confidence delta' > 1/2, where the binomial
tail inverse falls below the raw error rate.
"""

import itertools
from dataclasses import fields, replace

import pytest

from metacert.bounds import (BoundBudget, bound_pb, bound_pbsch,
                             bound_pbsch_disintegrated, bound_sch_binary,
                             bound_sch_real)

GRID = (
    dict(m_prime=400, c=0, b=8, delta=0.05, emp_loss=0.1, mu_norm_sq=3.5),
    dict(m_prime=2000, c=8, b=16, delta=0.01, emp_loss=0.05, mu_norm_sq=12.0),
    dict(m_prime=100, c=2, b=4, delta=0.05, emp_loss=0.2, mu_norm_sq=0.5, log_prior_j=-2.0),
    dict(m_prime=10, c=0, b=0, delta=0.9, emp_loss=0.9),
    dict(m_prime=60, c=3, b=2, delta=0.7, emp_loss=0.0, log_prior_j=-0.1),
    dict(m_prime=200, c=1, b=1, delta=0.05, emp_loss=1.0, mu_norm_sq=1.0),
    dict(m_prime=50, c=0, b=3, delta=0.05, emp_loss=0.3, mu_norm_sq=0.25, log_prior_j=-3.0),
)
EXPECTED = {
    (0, 'PB'): (
        ('empirical_loss', 0.0, 0.1),
        ('confidence', 6.684611727667927, 0.16355251927799763),
        ('message_cost', 1.75, 0.17254358992630262),
        ('compression_set_cost', 0.0, 0.17254358992630262),
    ),
    (0, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.1),
        ('confidence', 2.995732273553991, 0.12818123205078272),
        ('message_cost', 5.545177444479562, 0.16324029678162458),
        ('compression_set_cost', 0.0, 0.16324029678162458),
    ),
    (0, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.1),
        ('confidence', 6.684611727667927, 0.16355251927799763),
        ('message_cost', 5.545177444479562, 0.18988948638876693),
        ('compression_set_cost', 0.0, 0.18988948638876693),
    ),
    (0, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.1),
        ('confidence', 6.684611727667927, 0.16355251927799763),
        ('message_cost', 1.75, 0.17254358992630262),
        ('compression_set_cost', 0.0, 0.17254358992630262),
    ),
    (0, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.1),
        ('confidence', 14.755517816455745, 0.2003177335106569),
        ('message_cost', 3.5, 0.21374191361119818),
        ('compression_set_cost', 0.0, 0.21374191361119818),
    ),
    (1, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.050200803212851405),
        ('confidence', 4.605170185988092, 0.06275897629575812),
        ('message_cost', 11.090354888959125, 0.07963479160148705),
        ('compression_set_cost', 50.188599240849726, 0.12439879560546646),
    ),
    (1, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.05),
        ('confidence', 9.096764585620308, 0.07359903507079364),
        ('message_cost', 11.090354888959125, 0.0871898049530613),
        ('compression_set_cost', 50.188599240849726, 0.12934047934351073),
    ),
    (1, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.05),
        ('confidence', 9.096764585620308, 0.07359903507079364),
        ('message_cost', 6.0, 0.08143727359672276),
        ('compression_set_cost', 50.188599240849726, 0.12567246468709678),
    ),
    (1, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.05),
        ('confidence', 20.386546499276328, 0.08740367584903534),
        ('message_cost', 12.0, 0.09918958515005222),
        ('compression_set_cost', 50.188599240849726, 0.13782221544166312),
    ),
    (2, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.20408163265306123),
        ('confidence', 2.995732273553991, 0.2825715857167041),
        ('message_cost', 2.772588722239781, 0.33506954883404005),
        ('compression_set_cost', 2.0, 0.365269266869502),
    ),
    (2, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.2),
        ('confidence', 5.981363193449222, 0.360110575951487),
        ('message_cost', 2.772588722239781, 0.39735723536866835),
        ('compression_set_cost', 2.0, 0.4209447309050856),
    ),
    (2, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.2),
        ('confidence', 5.981363193449222, 0.360110575951487),
        ('message_cost', 0.25, 0.36374872975354544),
        ('compression_set_cost', 2.0, 0.39079641559115075),
    ),
    (2, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.2),
        ('confidence', 14.05226928223704, 0.4557048883841076),
        ('message_cost', 0.5, 0.46061107247790795),
        ('compression_set_cost', 2.0, 0.4794361835227846),
    ),
    (3, 'PB'): (
        ('empirical_loss', 0.0, 0.9),
        ('confidence', 1.9498002427147945, 0.9941900783434151),
        ('message_cost', 0.0, 0.9941900783434151),
        ('compression_set_cost', 0.0, 0.9941900783434151),
    ),
    (3, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.7943282347243383),
        ('confidence', 0.10536051565782635, 0.7943282347243383),
        ('message_cost', 0.0, 0.7943282347243383),
        ('compression_set_cost', 0.0, 0.7943282347243383),
    ),
    (3, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.9),
        ('confidence', 1.9498002427147945, 0.9941900783434151),
        ('message_cost', 0.0, 0.9941900783434151),
        ('compression_set_cost', 0.0, 0.9941900783434151),
    ),
    (3, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.9),
        ('confidence', 1.9498002427147945, 0.9941900783434151),
        ('message_cost', 0.0, 0.9941900783434151),
        ('compression_set_cost', 0.0, 0.9941900783434151),
    ),
    (3, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.9),
        ('confidence', 4.2399628157102836, 0.9994389732055082),
        ('message_cost', 0.0, 0.9994389732055082),
        ('compression_set_cost', 0.0, 0.9994389732055082),
    ),
    (4, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.0),
        ('confidence', 0.3566749439387324, 0.006237918056395134),
        ('message_cost', 1.3862943611198906, 0.030115618443625012),
        ('compression_set_cost', 0.1, 0.0318156782736156),
    ),
    (4, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.0),
        ('confidence', 3.071347758415953, 0.052457316041293785),
        ('message_cost', 1.3862943611198906, 0.07522447603136634),
        ('compression_set_cost', 0.1, 0.07684546689373563),
    ),
    (4, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.0),
        ('confidence', 3.071347758415953, 0.052457316041293785),
        ('message_cost', 0.0, 0.052457316041293785),
        ('compression_set_cost', 0.1, 0.05411821427291051),
    ),
    (4, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.0),
        ('confidence', 5.864139187973254, 0.09776443535894673),
        ('message_cost', 0.0, 0.09776443535894673),
        ('compression_set_cost', 0.1, 0.09934591710027937),
    ),
    (5, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 1.0),
        ('confidence', 2.995732273553991, 1.0),
        ('message_cost', 0.6931471805599453, 1.0),
        ('compression_set_cost', 5.298317366547963, 1.0),
    ),
    (5, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 1.0),
        ('confidence', 6.335531866476183, 1.0),
        ('message_cost', 0.6931471805599453, 1.0),
        ('compression_set_cost', 5.298317366547963, 1.0),
    ),
    (5, 'PBSCH'): (
        ('empirical_loss', 0.0, 1.0),
        ('confidence', 6.335531866476183, 1.0),
        ('message_cost', 0.5, 1.0),
        ('compression_set_cost', 5.298317366547963, 1.0),
    ),
    (5, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 1.0),
        ('confidence', 14.406437955264, 1.0),
        ('message_cost', 1.0, 1.0),
        ('compression_set_cost', 5.298317366547963, 1.0),
    ),
    (6, 'PB'): (
        ('empirical_loss', 0.0, 0.3),
        ('confidence', 5.644890956828009, 0.5351196443806819),
        ('message_cost', 0.125, 0.5377490400341681),
        ('compression_set_cost', 0.0, 0.5377490400341681),
    ),
    (6, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.3),
        ('confidence', 2.995732273553991, 0.42373296660810394),
        ('message_cost', 2.0794415416798357, 0.48441114637725896),
        ('compression_set_cost', 3.0, 0.5499603154220943),
    ),
    (6, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.3),
        ('confidence', 5.644890956828009, 0.5351196443806819),
        ('message_cost', 2.0794415416798357, 0.5753277704338234),
        ('compression_set_cost', 3.0, 0.6233859993445554),
    ),
    (6, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.3),
        ('confidence', 5.644890956828009, 0.5351196443806819),
        ('message_cost', 0.125, 0.5377490400341681),
        ('compression_set_cost', 3.0, 0.5931929960457865),
    ),
    (6, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.3),
        ('confidence', 13.715797045615826, 0.6633170922428523),
        ('message_cost', 0.25, 0.6663707898878564),
        ('compression_set_cost', 3.0, 0.7002082227700357),
    ),
}


CALCULATORS = {
    "PB": bound_pb,
    "SCH_BINARY": lambda budget: bound_sch_binary(
        budget, round(budget.emp_loss * budget.n_complement)),
    "SCH_REAL": bound_sch_real,
    "PBSCH": bound_pbsch,
    "PBSCH_DISINTEGRATED": bound_pbsch_disintegrated,
}


@pytest.mark.parametrize("point,kind", sorted(EXPECTED))
def test_breakdown_bits_pinned(point, kind):
    budget = BoundBudget(**GRID[point])
    cert = CALCULATORS[kind](budget)
    expected = EXPECTED[point, kind]
    assert cert.kind == kind
    assert cert.delta == budget.delta
    assert cert.breakdown == expected
    assert repr(cert.breakdown) == repr(expected)
    assert repr(cert.tau_star) == repr(expected[-1][2])


def test_grid_covers_every_kind_and_edge():
    assert {kind for _, kind in EXPECTED} == set(CALCULATORS)
    assert any(g["c"] == 0 for g in GRID)
    assert any("log_prior_j" in g for g in GRID)
    assert any(g["delta"] > 0.5 for g in GRID)


def test_pb_is_pbsch_without_a_compression_set():
    for m, delta, emp_loss, mu_norm_sq in itertools.product(
            (1, 7, 400, 2000), (1e-6, 0.05, 0.9, 1.0), (0.0, 0.3, 1.0), (0.0, 2.5)):
        budget = BoundBudget(m, 0, 3, delta, emp_loss, mu_norm_sq)
        pb, pbsch = bound_pb(budget), bound_pbsch(budget)
        assert pb.kind == "PB"
        for f in fields(pb):
            if f.name != "kind":
                assert repr(getattr(pb, f.name)) == repr(getattr(pbsch, f.name)), budget
        # PB has no compression set, so an explicit prior on one costs nothing
        assert bound_pb(replace(budget, log_prior_j=-3.0)) == pb
