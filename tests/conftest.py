"""Session-wide fixtures."""
import inspect

import numpy as np
import pytest

from qreservoir import esn_sweep


def _arg_bytes(value):
    """An argument as its exact bytes, with the dtype and shape they need."""
    array = np.asarray(value)
    return array.dtype.str, array.shape, array.tobytes()


@pytest.fixture(scope="session")
def esn_sweep_memo():
    """`esn_sweep`, memoised for the session. The key is the exact bytes of
    every argument but the targets, defaults filled in; under it each target
    row's report is stored by the row's bytes. A stacked (K, M) call always
    runs and stores its K rows, so criterion 3's sweep of three orders also
    serves a later one-target sweep whose row is one of them, bit for bit
    (`esn_sweep` gives a row the same NMSEs alone or in a stack). A 1-d call
    whose row is not stored runs and is stored."""
    signature = inspect.signature(esn_sweep)
    reports = {}

    def memo(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = dict(bound.arguments)
        targets = np.asarray(arguments.pop("targets"), dtype=np.float64)
        key = tuple((name, _arg_bytes(v)) for name, v in arguments.items())
        stored = reports.setdefault(key, {})
        if targets.ndim == 1 and targets.tobytes() in stored:
            return stored[targets.tobytes()]
        result = esn_sweep(*args, **kwargs)
        rows = result if targets.ndim == 2 else (result,)
        for row, report in zip(np.atleast_2d(targets), rows):
            stored[row.tobytes()] = report
        return result

    return memo
