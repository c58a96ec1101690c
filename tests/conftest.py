"""Suite-wide pytest options.

``--shuffle-seed N`` runs the collected tests in an order shuffled by
``random.Random(N)``, so hidden dependencies between tests (state one
test leaves behind for another) show up as seeded, replayable failures::

    pytest tests/ -q -p no:cacheprovider --shuffle-seed 20261017
"""

import random


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle-seed",
        type=int,
        default=None,
        metavar="N",
        help="run the collected tests in an order shuffled by seed N",
    )


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        random.Random(seed).shuffle(items)
