"""The probe of the white-box tests (tests/probes.py)."""

import pytest

from evoalg.algebra import EvolutionAlgebra
from evoalg.fields import GF, QI, QQ
from evoalg.linalg import Matrix
from evoalg.oracle import verify_hom

from probes import Probe


@pytest.mark.parametrize("field", [GF(13), QQ(), QI()],
                         ids=["GF13", "Q", "Qi"])
def test_the_probe_counts_the_kernels_of_every_field_kind(field,
                                                          monkeypatch):
    # GF(p) runs its own rref and realizes, Q and Q(i) the generic ones;
    # a probe that missed either op table would count 0 here
    probe = Probe(monkeypatch)
    probe.kernel("rref")
    probe.kernel("realizes")
    assert Matrix.from_ints([[1, 2], [3, 4]], field).is_invertible()
    assert probe.counts == {"rref": 1}
    probe.counts.clear()
    E = EvolutionAlgebra.from_ints([[0, 1, 0], [0, 0, 1], [0, 0, 0]], field)
    assert verify_hom(E, E, Matrix.identity(3, field))
    assert probe.counts == {"realizes": 1}


def test_a_probe_on_a_shared_op_table_leaves_nothing_behind():
    # Q's op table is shared by every algebra over Q: a method copy left
    # on it would shadow the next test's class patch, which then counts
    # nothing over Q
    ops = QQ().ops
    with pytest.MonkeyPatch.context() as mp:
        Probe(mp).count(ops, "rref")
        assert "rref" in vars(ops)
    assert "rref" not in vars(ops)
