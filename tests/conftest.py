import math

import pytest

from disconn import (
    CircleElement,
    DiscreteConnectionForm,
    HopfBundle,
    Quaternion,
    TrivialBundle,
    UnitQuaternion,
    hopf_closed_form,
)

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
    form._values_fn = lambda a, b: calls.append(a.shape[1] if a.ndim > 1 else 1) or evaluate(a, b)
    return calls


def closed_form_broken_at(bad):
    """The closed form, except that pairs starting at ``bad`` gain 0.1 q1.w,
    so its slice through ``bad`` is not horizontal along most fibers."""
    closed = hopf_closed_form()

    def ev(q0, q1):
        g = closed.evaluate(q0, q1)
        return CircleElement(g.angle + 0.1 * q1.w) if q0 == bad else g

    return DiscreteConnectionForm(closed.bundle, ev, closed.in_domain, "closed-form")


@pytest.fixture(scope="session")
def hopf():
    return HopfBundle()


@pytest.fixture(scope="session")
def line_bundle():
    return TrivialBundle(1)


@pytest.fixture(scope="session")
def plane_bundle():
    return TrivialBundle(2)
