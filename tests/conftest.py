import math

import numpy as np
import pytest

from disconn import (
    DiscreteConnectionForm,
    HopfBundle,
    Quaternion,
    TrivialBundle,
    UnitQuaternion,
    hopf_closed_form,
)
from disconn.algebra import canonical_rows
from disconn.bundle import phase_rows

ONE = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
I_POINT = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
J_POINT = UnitQuaternion(0.0, 0.0, 1.0, 0.0)
K_POINT = UnitQuaternion(0.0, 0.0, 0.0, 1.0)
#: horizontal partner of the identity over the base point k
HALF_J = UnitQuaternion(1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0), 0.0)

I_BASE = Quaternion(0.0, 1.0, 0.0, 0.0)
J_BASE = Quaternion(0.0, 0.0, 1.0, 0.0)
K_BASE = Quaternion(0.0, 0.0, 0.0, 1.0)
#: the quaternion units j and k
Q_J, Q_K = J_BASE, K_BASE


def count_root_calls(form):
    """List that gains the pair count of every call to ``form``'s root evaluator."""
    calls = []
    evaluate = form._values_fn
    # one pair at a public call comes without the batch axis
    form._values_fn = lambda a, b: calls.append(columns(a)) or evaluate(a, b)
    return calls


def columns(rows):
    """Number of items in rows: one without the batch axis."""
    return rows.shape[-1] if rows.ndim > 1 else 1


def at_point(rows, point):
    """Row mask of the columns of point rows that equal ``point``."""
    return (rows.T == np.array(point.components())).all(axis=-1)


def closed_form_where(mask=None, term=None, checked=None):
    """The closed form on the part of its domain where the row mask ``mask``
    holds, its angles plus the row term ``term``, reduced to canonical angles.

    ``mask`` and ``term`` map point rows q0, q1, with or without the batch
    axis, as the form's own row functions do.  Each domain call adds the
    number of pairs it checks to the list ``checked``, if one is given.
    """
    closed = hopf_closed_form()

    def domain(q0, q1):
        if checked is not None:
            checked.append(columns(q0))
        held = closed.domain_rows(q0, q1)
        return held if mask is None else held & mask(q0, q1)

    def values(q0, q1):
        angles = phase_rows(q0, q1)
        return angles if term is None else canonical_rows(angles + term(q0, q1))

    return DiscreteConnectionForm(closed.bundle, "closed-form", domain, values)


def closed_form_broken_at(bad):
    """The closed form, except that pairs starting at ``bad`` gain 0.1 q1.w,
    so its slice through ``bad`` is not horizontal along most fibers."""
    return closed_form_where(term=lambda q0, q1: np.where(at_point(q0, bad), 0.1 * q1[0], 0.0))


@pytest.fixture(scope="session")
def hopf():
    return HopfBundle()


@pytest.fixture(scope="session")
def line_bundle():
    return TrivialBundle(1)


@pytest.fixture(scope="session")
def plane_bundle():
    return TrivialBundle(2)
