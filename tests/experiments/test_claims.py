"""The paper-claims table at ``fast`` scale, pinned row by row.

Every row of :data:`repro.experiments.claims.CLAIMS` is evaluated once
with numpy and once with :func:`repro.hashing.batch._numpy` patched to
return ``None``; each row's ``(held, seeds)`` must match its pin under
both.  At ``fast`` every row has one sample (one replicate seed), and
every row but those in :data:`BELOW_PIN` holds.  A row that starts or
stops holding is a diff here: update the pin in the same change and say
why.
"""

import pytest

import repro.hashing.batch as batch
from repro.experiments.claims import CLAIMS, evaluate

#: Rows that do not hold at ``fast`` (they hold 3/3 at ``default``):
#: one Figure 4(b) cell of the 24 and one Figure 6 mean ordering, both
#: at 1,000-element sets / 300-symbol transfers and a single seed.
BELOW_PIN = {
    "fig4b-c1-b6": (0, 1),
    "fig6-compact-recode-bf-beats-recode": (0, 1),
}


def _pins():
    return {v.claim.id: (v.held, v.seeds) for v in evaluate("fast")}


@pytest.fixture(scope="module")
def pins():
    with_numpy = _pins()
    if batch._numpy() is None:
        return with_numpy, with_numpy
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "_numpy", lambda: None)
        return with_numpy, _pins()


@pytest.mark.parametrize("claim_id", [c.id for c in CLAIMS])
def test_row_is_pinned_at_fast(pins, claim_id):
    with_numpy, without_numpy = pins
    pin = BELOW_PIN.get(claim_id, (1, 1))
    assert with_numpy[claim_id] == pin
    assert without_numpy[claim_id] == pin


def test_ids_are_unique_and_pins_name_rows():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert set(BELOW_PIN) <= set(ids)


def test_unknown_scale_is_refused():
    with pytest.raises(ValueError, match="scale"):
        evaluate("huge")
