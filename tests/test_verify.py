import numpy as np

from ejaopt.algebra import (
    SymMatrix,
    eigenvalues,
    random_element,
    strong_commutation_gap,
    synthesize_from_frame,
)
from ejaopt.majorization import sort_desc
from ejaopt.verify import (
    DEFAULT_KINDS,
    _random_frame,
    _strong_equivalence_gaps,
    suite_strong_commutation_equivalence,
)


def fresh_gaps(a, b):
    """The three strong-commutation gaps through the public predicate and a
    fresh eigenvalue call for every operand."""
    return (
        strong_commutation_gap(a, b),
        float(np.max(np.abs(eigenvalues(a + b) - (eigenvalues(a) + eigenvalues(b))))),
        float(np.max(np.abs(sort_desc(eigenvalues(a) - eigenvalues(b)) - eigenvalues(a - b)))),
    )


def test_strong_equivalence_gaps_equal_fresh_solves_bit_for_bit():
    for ki, (label, alg) in enumerate(DEFAULT_KINDS):
        rng = np.random.default_rng([7, ki])
        for _ in range(10):
            frame = _random_frame(alg, rng)
            constructed = [
                synthesize_from_frame(frame, sort_desc(rng.standard_normal(alg.rank)), validate=False)
                for _ in range(2)
            ]
            generic = [random_element(alg, rng) for _ in range(2)]
            for a, b in (constructed, generic):
                assert _strong_equivalence_gaps(a, b) == fresh_gaps(a, b), label


def test_strong_commutation_equivalence_solves_each_spectrum_once(monkeypatch):
    # Per trial: one decomposition for the shared frame, then lambda of a,
    # b, a + b and a - b for the constructed pair and for every generic
    # draw.  Solving lambda(a) and lambda(b) afresh for each of the three
    # tests would make 7 per trial and 8 per draw.
    eigh = SymMatrix._eigh
    solves = 0

    def counted_eigh(self, mat, want_vectors=True):
        nonlocal solves
        solves += 1
        return eigh(self, mat, want_vectors)

    monkeypatch.setattr(SymMatrix, "_eigh", counted_eigh)
    trials = 20
    out = suite_strong_commutation_equivalence(SymMatrix(3), np.random.default_rng(3), trials, 1e-9)
    assert out["failures"] == 0
    assert solves == 5 * trials + 4 * (trials + out["resampled"])
