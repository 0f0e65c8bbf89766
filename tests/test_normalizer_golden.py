"""Golden output of the classify normalizers.

A seeded corpus over GF(5), GF(13) and Q(i) (random nilpotent algebras
of dims 1-5 and every table template with sampled parameters, each with
a monomial relabelling) is classified, and a sha256 digest of what
comes out is compared with a pinned value: for each input its label
(serialization, ``boundary``, ``no_witness``), the payload rows of the
witness ``normal_form`` returns, or the type name of the error
raised.  All three fields contain i, so every template can be built and
every normalizer's builder runs on its own template.
"""

import hashlib
import random

from evoalg.classify import Decomposed, normal_form
from evoalg.errors import EvoalgError
from evoalg.fields import GF, QI
from evoalg.tables import ENTRIES

from helpers import random_monomial_relabelling, random_nilpotent, scalar_limit

# re-pin only for an intended output change, naming the outputs it changes;
# last re-pinned when the [1,1,1,1,1] v4 builder came to shift y3 before
# x2: records 644 and 645, a GF(13) random algebra labelled
# d5:[1,1,1,1,1]:v4(5,5) and its relabelling, went from no_witness to a
# witness
GOLDEN_SHA256 = (
    "35abf4061d7b076835e083eebbee7c73663b2cad91a76b824b8650222ab10b08")


def _corpus():
    rng = random.Random(1018)
    for field in (GF(5), GF(13), QI()):
        for _ in range(150):
            E = random_nilpotent(rng.randrange(1, 6), rng, field)
            yield E
            yield random_monomial_relabelling(E, rng)
        for entry in ENTRIES:
            while True:
                params = tuple(
                    field.from_int(rng.randrange(2, scalar_limit(field)))
                    for _ in range(entry.param_arity))
                if entry.param_ok(params):
                    break
            T = entry.template(params, field)
            yield T
            yield random_monomial_relabelling(T, rng)


def _record(E):
    try:
        res = normal_form(E)
    except EvoalgError as exc:
        return type(exc).__name__
    label = res.label
    if isinstance(label, Decomposed):
        return repr([(l.serialize(), l.boundary, l.no_witness)
                     for l in label.labels])
    rows = None if res.witness is None else [[x.value for x in r]
                                             for r in res.witness.rows]
    return repr((label.serialize(), label.boundary, label.no_witness, rows))


def test_normalizer_outputs_match_the_pinned_digest():
    records = [_record(E) for E in _corpus()]
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
