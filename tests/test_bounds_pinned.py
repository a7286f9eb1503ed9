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
        ('confidence', 6.684611727667927, 0.1635525192777095),
        ('message_cost', 1.75, 0.1725435899259537),
        ('compression_set_cost', 0.0, 0.1725435899259537),
    ),
    (0, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.1),
        ('confidence', 2.995732273553991, 0.1281812320503377),
        ('message_cost', 5.545177444479562, 0.16324029678071383),
        ('compression_set_cost', 0.0, 0.16324029678071383),
    ),
    (0, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.1),
        ('confidence', 6.684611727667927, 0.1635525192777095),
        ('message_cost', 5.545177444479562, 0.189889486388165),
        ('compression_set_cost', 0.0, 0.189889486388165),
    ),
    (0, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.1),
        ('confidence', 6.684611727667927, 0.1635525192777095),
        ('message_cost', 1.75, 0.1725435899259537),
        ('compression_set_cost', 0.0, 0.1725435899259537),
    ),
    (0, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.1),
        ('confidence', 14.755517816455745, 0.20031773351010992),
        ('message_cost', 3.5, 0.21374191361046546),
        ('compression_set_cost', 0.0, 0.21374191361046546),
    ),
    (1, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.050200803212851405),
        ('confidence', 4.605170185988092, 0.06275897629529936),
        ('message_cost', 11.090354888959125, 0.07963479160116549),
        ('compression_set_cost', 50.188599240853364, 0.12439879560497502),
    ),
    (1, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.05),
        ('confidence', 9.096764585620308, 0.07359903507003766),
        ('message_cost', 11.090354888959125, 0.08718980495286816),
        ('compression_set_cost', 50.188599240853364, 0.12934047934340925),
    ),
    (1, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.05),
        ('confidence', 9.096764585620308, 0.07359903507003766),
        ('message_cost', 6.0, 0.08143727359615695),
        ('compression_set_cost', 50.188599240853364, 0.12567246468693155),
    ),
    (1, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.05),
        ('confidence', 20.386546499276328, 0.08740367584891827),
        ('message_cost', 12.0, 0.09918958514981571),
        ('compression_set_cost', 50.188599240853364, 0.13782221544142884),
    ),
    (2, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.20408163265306123),
        ('confidence', 2.995732273553991, 0.28257158571614127),
        ('message_cost', 2.772588722239781, 0.3350695488334168),
        ('compression_set_cost', 2.0, 0.36526926686929073),
    ),
    (2, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.2),
        ('confidence', 5.981363193449222, 0.36011057595096646),
        ('message_cost', 2.772588722239781, 0.3973572353679629),
        ('compression_set_cost', 2.0, 0.42094473090473916),
    ),
    (2, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.2),
        ('confidence', 5.981363193449222, 0.36011057595096646),
        ('message_cost', 0.25, 0.36374872975284245),
        ('compression_set_cost', 2.0, 0.3907964155907393),
    ),
    (2, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.2),
        ('confidence', 14.05226928223704, 0.45570488838347967),
        ('message_cost', 0.5, 0.46061107247733163),
        ('compression_set_cost', 2.0, 0.4794361835221934),
    ),
    (3, 'PB'): (
        ('empirical_loss', 0.0, 0.9),
        ('confidence', 1.9498002427147945, 0.9941900783429447),
        ('message_cost', 0.0, 0.9941900783429447),
        ('compression_set_cost', 0.0, 0.9941900783429447),
    ),
    (3, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.794328234724162),
        ('confidence', 0.10536051565782635, 0.794328234724162),
        ('message_cost', 0.0, 0.794328234724162),
        ('compression_set_cost', 0.0, 0.794328234724162),
    ),
    (3, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.9),
        ('confidence', 1.9498002427147945, 0.9941900783429447),
        ('message_cost', 0.0, 0.9941900783429447),
        ('compression_set_cost', 0.0, 0.9941900783429447),
    ),
    (3, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.9),
        ('confidence', 1.9498002427147945, 0.9941900783429447),
        ('message_cost', 0.0, 0.9941900783429447),
        ('compression_set_cost', 0.0, 0.9941900783429447),
    ),
    (3, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.9),
        ('confidence', 4.2399628157102836, 0.999438973204815),
        ('message_cost', 0.0, 0.999438973204815),
        ('compression_set_cost', 0.0, 0.999438973204815),
    ),
    (4, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.0),
        ('confidence', 0.3566749439387324, 0.006237918056285707),
        ('message_cost', 1.3862943611198906, 0.03011561844323296),
        ('compression_set_cost', 0.1, 0.03181567827323306),
    ),
    (4, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.0),
        ('confidence', 3.071347758415953, 0.05245731604100001),
        ('message_cost', 1.3862943611198906, 0.07522447603059845),
        ('compression_set_cost', 0.1, 0.07684546689324634),
    ),
    (4, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.0),
        ('confidence', 3.071347758415953, 0.05245731604100001),
        ('message_cost', 0.0, 0.05245731604100001),
        ('compression_set_cost', 0.1, 0.05411821427242103),
    ),
    (4, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.0),
        ('confidence', 5.864139187973254, 0.09776443535884027),
        ('message_cost', 0.0, 0.09776443535884027),
        ('compression_set_cost', 0.1, 0.09934591709952656),
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
        ('confidence', 5.644890956828009, 0.535119644380211),
        ('message_cost', 0.125, 0.5377490400337592),
        ('compression_set_cost', 0.0, 0.5377490400337592),
    ),
    (6, 'SCH_BINARY'): (
        ('empirical_loss', 0.0, 0.3),
        ('confidence', 2.995732273553991, 0.4237329666075311),
        ('message_cost', 2.0794415416798357, 0.48441114637716964),
        ('compression_set_cost', 3.0, 0.5499603154212309),
    ),
    (6, 'SCH_REAL'): (
        ('empirical_loss', 0.0, 0.3),
        ('confidence', 5.644890956828009, 0.535119644380211),
        ('message_cost', 2.0794415416798357, 0.5753277704333413),
        ('compression_set_cost', 3.0, 0.623385999344282),
    ),
    (6, 'PBSCH'): (
        ('empirical_loss', 0.0, 0.3),
        ('confidence', 5.644890956828009, 0.535119644380211),
        ('message_cost', 0.125, 0.5377490400337592),
        ('compression_set_cost', 3.0, 0.5931929960456728),
    ),
    (6, 'PBSCH_DISINTEGRATED'): (
        ('empirical_loss', 0.0, 0.3),
        ('confidence', 13.715797045615826, 0.6633170922424141),
        ('message_cost', 0.25, 0.6663707898876964),
        ('compression_set_cost', 3.0, 0.700208222769743),
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
