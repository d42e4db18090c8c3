import numpy as np
import pytest

from magbag.suites import ps_suite


def test_ps_suite_rejects_a_short_sample():
    # the first seed whose 3 draws for one point all miss the radius-8 ball
    seed = next(
        s for s in range(1000)
        if np.all(np.linalg.norm(np.random.default_rng(s).uniform(-8, 8, (3, 3)), axis=1) > 8.0)
    )
    with pytest.raises(ValueError, match="need n_points=1"):
        ps_suite(seed=seed, n_points=1)
