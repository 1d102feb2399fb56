"""Golden values: every SlopeEstimate field of each named estimator and order.

The rows below exercise each branch of the count-row and fit rules: dropped
heuristic rows, excluded count-1 rows, the degenerate ladder, the clamped
log+ estimate and the rank fallback below four points.
"""

import re

import pytest

from dynoscale.errors import ParameterError
from dynoscale.estimators.quantities import (box_dimension_estimate, entropy_at_scale,
                                             mdim_estimate, mdim_mo_estimate,
                                             metric_order_estimate)
from dynoscale.estimators.slopes import SlopeEstimate
from dynoscale.measures.quantization import (dynamical_quantization_order,
                                             dynamical_quantization_rate,
                                             quantization_order)
from dynoscale.metric_core.counts import CountBracket

SCALES = [0.5 * 0.6**i for i in range(7)]


def _counts(keys, counts, heuristic=()):
    """(key, bracket) rows; keys in ``heuristic`` get the bracket [c, c + 3]."""
    return [(k, CountBracket("separated", k if isinstance(k, float) else 0.5,
                             k if isinstance(k, int) else 1, c,
                             c + 3 if k in heuristic else c,
                             "heuristic" if k in heuristic else "exact"))
            for k, c in zip(keys, counts)]


def _entropies(values, flagged=()):
    return [(eps, SlopeEstimate(v, 4, 0.0, v, v, flagged=eps in flagged))
            for eps, v in zip(SCALES, values)]


def _reports(pairs, heuristic=()):
    """Quantization brackets [q, q] from (scale, horizon, count) triples."""
    return [CountBracket("lp", eps, n, q, q, "heuristic" if (eps, n) in heuristic else "exact")
            for eps, n, q in pairs]


LADDER = [0.2, 0.2, 0.9, 0.9, 1.7, 2.6, 2.6]
CASES = {
    "entropy-dropped": lambda: entropy_at_scale(
        _counts([1, 2, 3, 4, 5], [2, 4, 7, 13, 25], heuristic=(3,)), tail=4),
    "entropy-exact": lambda: entropy_at_scale(_counts([1, 2, 3, 4], [2, 4, 8, 16])),
    "box-dropped": lambda: box_dimension_estimate(
        _counts(SCALES[:6], [2, 4, 9, 15, 33, 60], heuristic=(SCALES[2],))),
    "order-excluded-dropped": lambda: metric_order_estimate(
        _counts(SCALES, [1, 2, 3, 5, 9, 17, 33], heuristic=(SCALES[4],))),
    "order-excluded": lambda: metric_order_estimate(
        _counts(SCALES[:5], [1, 1, 3, 6, 20]), tail=3),
    "mdim-rank-corrected": lambda: mdim_estimate(
        _entropies([0.1, 0.5, 0.5, 1.2, 1.6, 2.4, 3.1], flagged=(SCALES[1],))),
    "mdim-degenerate": lambda: mdim_estimate(_entropies([0.7, 0.7, 0.7, 0.7])),
    "mdim-plain": lambda: mdim_estimate(_entropies(LADDER), corrected=False),
    "mdim-mo-clamped": lambda: mdim_mo_estimate(
        _entropies([0.2, 0.9, 1.0], flagged=(SCALES[2],))),
    "mdim-mo-fallback": lambda: mdim_mo_estimate(_entropies(LADDER)),
    "mdim-mo-plain": lambda: mdim_mo_estimate(_entropies(LADDER), corrected=False),
    "mdim-mo-degenerate": lambda: mdim_mo_estimate(_entropies([3.0, 2.0, 2.0])),
    "q-order": lambda: quantization_order(_reports(
        [(SCALES[i], 1, q) for i, q in enumerate([1, 2, 3, 6, 11])],
        heuristic=((SCALES[3], 1),))),
    "q-rate": lambda: dynamical_quantization_rate(_reports(
        [(0.3, n, q) for n, q in zip(range(1, 7), [2, 3, 5, 9, 14, 26])],
        heuristic=((0.3, 2),))),
    "q-dyn-order": lambda: dynamical_quantization_order(
        _entropies([-0.4, 1.5, 2.0, 4.0, 6.5], flagged=(SCALES[0],))),
    "q-dyn-order-clamped": lambda: dynamical_quantization_order(
        _entropies([-0.4, 0.5, 1.0])),
}

# (value, tail_window, residual, liminf_proxy, limsup_proxy, flagged, method,
#  note, plain_value), recorded from the per-estimator code these replaced
EXPECTED = {
    'box-dropped': (1.3412513932199108, 5, 0.06163497677636309, 1.1703347932081998,
        1.5434961045052475, True, 'tail-ls', 'dropped 1 heuristic cells', None),
    'entropy-dropped': (0.6230112284958158, 4, 0.04348890861331234, 0.5893274981708231,
        0.6931471805599453, True, 'tail-ls', 'dropped 1 heuristic cells', None),
    'entropy-exact': (0.6931471805599454, 4, 3.3306690738754696e-16, 0.6931471805599452,
        0.6931471805599454, False, 'tail-ls', '', None),
    'mdim-degenerate': (-1.9488848619366838e-16, 4, 3.3306690738754696e-16, 0.0,
        0.0, False, 'tail-ls', 'degenerate ladder', None),
    'mdim-mo-clamped': (0.0, 3, 0.0, 0.0,
        0.0, True, 'clamped', 'all entropies <= 1; log+ clamps to 0', None),
    'mdim-mo-degenerate': (-0.3968723271152005, 3, 0.1351550360360544, -0.7937446542303994,
        0.0, True, 'tail-ls', 'degenerate ladder', None),
    'mdim-mo-fallback': (0.3414152400014021, 3, 0.13915530057129655, 0.2596914809941343,
        0.8317577940450089, True, 'tail-ls(fallback)', '', 0.3414152400014021),
    'mdim-mo-plain': (0.45722730480425444, 6, 0.2901601452631024, 0.0,
        1.0387659239765368, True, 'tail-ls', '', None),
    'mdim-plain': (1.0011803395024226, 6, 0.3495238095238111, 0.0,
        1.7618536700740968, True, 'tail-ls', '', None),
    'mdim-rank-corrected': (1.313560651549952, 6, 0.24584989901851295, 0.9545163329098229,
        1.8625612738226363, True, 'rank-corrected', '', 0.9423302928277605),
    'order-excluded': (0.9818819045849082, 3, 0.008280122138776824, 0.9575679652867999,
        1.0061958438830165, False, 'tail-ls', 'excluded 2 count-1 rows (log 0 = 0)', None),
    'order-excluded-dropped': (0.6235296348541168, 5, 0.10397174961589434, 0.41179043528678594,
        0.901600716117065, True, 'tail-ls',
        'dropped 1 heuristic cells; excluded 1 count-1 rows (log 0 = 0)', None),
    'q-dyn-order': (0.9248622987986943, 5, 0.17819458477797323, 0.5631707946263248,
        1.3569154488567239, True, 'tail-ls', '', None),
    'q-dyn-order-clamped': (0.0, 3, 0.0, 0.0,
        0.0, False, 'tail-ls', 'all rates clamp to 0 under log+', None),
    'q-order': (0.5283395432113378, 5, 0.33368841800877086, -0.7174912602848675,
        0.9575679652867999, True, 'tail-ls', '1 unit counts contribute 0 (log 0 = 0)', None),
    'q-rate': (0.5387808629041185, 4, 0.05628719118856562, 0.44183275227903884,
        0.6190392084062237, True, 'tail-ls', '', None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimator_fields_are_pinned(name):
    est = CASES[name]()
    got = (est.value, est.tail_window, est.residual, est.liminf_proxy,
           est.limsup_proxy, est.flagged, est.method, est.note, est.plain_value)
    want = EXPECTED[name]
    assert got[1:2] + got[5:8] == want[1:2] + want[5:8]
    for g, w in zip(got[:1] + got[2:5] + got[8:], want[:1] + want[2:5] + want[8:]):
        assert g == w or g == pytest.approx(w, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: entropy_at_scale(_counts([1, 2], [2, 4], heuristic=(2,))),
     "need >= 2 exact horizons for an entropy slope"),
    (lambda: box_dimension_estimate(_counts(SCALES[:1], [3])), "need >= 2 exact scales"),
    (lambda: metric_order_estimate(_counts(SCALES[:3], [1, 1, 4])),
     "need >= 2 usable scales (count > 1)"),
    (lambda: quantization_order(_reports([(0.5, 1, 2)])), "need >= 2 scales"),
    (lambda: dynamical_quantization_rate(_reports([(0.5, 1, 2)])), "need >= 2 horizons"),
])
def test_too_few_rows_keep_their_messages(call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()


def test_cases_cover_every_rule():
    methods = {EXPECTED[name][6] for name in CASES}
    notes = " ".join(EXPECTED[name][7] for name in CASES)
    assert {"clamped", "tail-ls(fallback)", "rank-corrected"} <= methods
    for rule in ["dropped 1 heuristic", "excluded 1 count-1", "degenerate ladder"]:
        assert rule in notes
