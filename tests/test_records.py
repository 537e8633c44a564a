"""The result records stay immutable and keep their required fields.

Each record is a `collections.namedtuple` (subclassed, with empty
`__slots__`, where it has methods), so no field can be rebound and no new
attribute can be attached to a result after it is returned.
"""
import pytest

from ybforge.constructions import (Family, Form8Result, PhiPair,
                                   RestrictedReport)
from ybforge.paramgrid import GridResult, IdentityJob
from ybforge.structures import (CenterReport, ColorLieReport, CoPropReport,
                                PropReport, Thm21Verdict, WSubspace)
from ybforge.ybcore import WxzReport, YbReport

RECORDS = [PropReport, CoPropReport, Thm21Verdict, CenterReport,
           ColorLieReport, WSubspace, YbReport, WxzReport, Family, PhiPair,
           Form8Result, RestrictedReport, IdentityJob, GridResult]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_record_fields_cannot_be_assigned(record):
    rec = record(*range(len(record._fields)))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None
    assert rec == record(*range(len(record._fields)))


def test_grid_result_certificate_is_required():
    with pytest.raises(TypeError):
        GridResult("identity", True, True, None)
