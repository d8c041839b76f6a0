import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from clonalnet import synthdigits
from clonalnet.mnist import load_dataset

settings.register_profile(
    "suite", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    synthdigits.write_corpus(d)
    return d


@pytest.fixture(scope="session")
def corpus(corpus_dir):
    train = load_dataset(corpus_dir / synthdigits.TRAIN_IMAGES,
                         corpus_dir / synthdigits.TRAIN_LABELS)
    test = load_dataset(corpus_dir / synthdigits.TEST_IMAGES,
                        corpus_dir / synthdigits.TEST_LABELS)
    return train, test


def _allowed_numpy_function(path: str, name: str) -> bool:
    """The numpy Python functions a hot path may enter: the array-function
    dispatchers (the stubs of ``_core/multiarray.py`` and the
    ``*_dispatcher`` functions) and ``np.einsum``'s wrapper."""
    return (path == os.path.join("_core", "multiarray.py")
            or name.endswith("_dispatcher")
            or (path == os.path.join("_core", "einsumfunc.py")
                and name == "einsum"))


@pytest.fixture
def numpy_helpers_entered():
    """A function that calls ``action()`` under ``sys.setprofile`` and
    returns its result and the set of (path, name) of the numpy functions
    written in Python that it entered, beyond those
    ``_allowed_numpy_function`` allows. Such helpers (``np.sum``,
    ``ndarray.all()``'s wrapper, ``as_strided``) cost more on a hot path
    than the arithmetic they wrap."""
    root = os.path.dirname(np.__file__)

    def run(action):
        entered = set()

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(root + os.sep):
                entered.add((os.path.relpath(code.co_filename, root),
                             code.co_name))

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = action()
        finally:
            sys.setprofile(previous)
        return result, {entry for entry in entered
                        if not _allowed_numpy_function(*entry)}
    return run
