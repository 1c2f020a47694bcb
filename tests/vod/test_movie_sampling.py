"""``MovieCatalog.sample`` against ``Generator.choice`` on the same weights.

The catalog bisects a cached cumulative table with one ``rng.random()``;
``rng.choice(len, p=weights)`` builds the same table on every call.  Both
must pick the same movie and leave the generator in the same state, so
every seeded run that draws titles keeps its arrivals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.example1 import paper_example1_specs
from repro.service.bootstrap import default_catalog
from repro.vod.movie import Movie, MovieCatalog

SEEDS = range(200)
DRAWS = 50


def _example1_catalog() -> MovieCatalog:
    specs = paper_example1_specs()
    movies = [
        Movie(index, spec.name, spec.length, popularity=1.0 / len(specs))
        for index, spec in enumerate(specs)
    ]
    return MovieCatalog(movies, popular_count=len(movies))


def _shifted_catalog() -> MovieCatalog:
    catalog = default_catalog(20, 5)
    ids = [movie.movie_id for movie in catalog.movies]
    # Move a third of the head's weight onto the tail's last title.
    head = catalog.movies[0]
    catalog.set_popularities(
        {
            head.movie_id: head.popularity * 2.0 / 3.0,
            ids[-1]: catalog.get(ids[-1]).popularity + head.popularity / 3.0,
        }
    )
    return catalog


CATALOGS = [
    pytest.param(_example1_catalog, id="example1"),
    pytest.param(lambda: default_catalog(20, 5), id="zipf-20-5"),
    pytest.param(_shifted_catalog, id="after-set-popularities"),
]


@pytest.mark.parametrize("make", CATALOGS)
def test_sample_picks_what_choice_picks(make):
    catalog = make()
    weights = [movie.popularity for movie in catalog.movies]
    for seed in SEEDS:
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        for _ in range(DRAWS):
            expected = catalog.movies[int(theirs.choice(len(weights), p=weights))]
            assert catalog.sample(ours) is expected
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_set_popularities_rebuilds_the_table():
    catalog = default_catalog(20, 5)
    last = catalog.movies[-1]
    everyone_else = {movie.movie_id: 0.0 for movie in catalog.movies if movie is not last}
    catalog.set_popularities({**everyone_else, last.movie_id: 1.0})
    rng = np.random.default_rng(0)
    assert {catalog.sample(rng).movie_id for _ in range(100)} == {last.movie_id}
