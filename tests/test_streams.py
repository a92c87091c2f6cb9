"""The first draws of each numpy ``Generator`` method, in the form plotquest
calls it, from a fixed seed. numpy's ``Generator`` does not promise the same
stream across releases, and every pinned sha256 of a dataset or a run rests
on these methods; a numpy that moves a stream fails here, under the method's
name, before the hash pins fail with no diagnosis. Values recorded with
numpy 2.4.6."""

import numpy as np
import pytest

# id: (the call, its result from default_rng(7))
DRAWS = {
    "integers-scalar": (lambda r: [int(r.integers(7)) for _ in range(6)], [6, 4, 4, 6, 4, 5]),
    "integers-range": (lambda r: [int(r.integers(1960, 2005)) for _ in range(4)], [2002, 1988, 1990, 2000]),
    "integers-sized": (lambda r: r.integers(5, size=6).tolist(), [4, 3, 3, 4, 2, 3]),
    "random-scalar": (lambda r: [float(r.random()) for _ in range(3)],
                      [0.625095466604667, 0.8972138009695755, 0.7756856902451935]),
    "random-block": (lambda r: r.random(3).tolist(), [0.625095466604667, 0.8972138009695755, 0.7756856902451935]),
    "choice-without-replacement": (lambda r: r.choice(10, size=3, replace=False).tolist(), [7, 5, 6]),
    "choice-with-replacement": (lambda r: r.choice(10, size=3).tolist(), [9, 6, 6]),
    "choice-over-a-list": (lambda r: [float(r.choice([0.25, 0.5, 0.75])) for _ in range(6)],
                           [0.75, 0.5, 0.75, 0.75, 0.5, 0.75]),
    "uniform-sized": (lambda r: r.uniform(0.5, 2.0, size=3).tolist(),
                      [1.4376431999070005, 1.8458207014543633, 1.6635285353677902]),
    "standard-normal": (lambda r: r.standard_normal((2, 4)).tolist(),
                        [[0.0012301533574825742, 0.2987455375084699, -0.2741378553622176, -0.8905918387572742],
                         [-0.45467078517172255, -0.9916465549964624, 0.060143602597438485, 1.3402152455545335]]),
    "permutation": (lambda r: r.permutation(8).tolist(), [0, 6, 7, 2, 4, 5, 1, 3]),
}


@pytest.mark.parametrize("method", DRAWS)
def test_generator_method_draws_its_recorded_stream(method):
    call, expected = DRAWS[method]
    assert call(np.random.default_rng(7)) == expected
