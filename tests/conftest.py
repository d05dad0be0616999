import pytest

from verseforge import corpus
from verseforge.corpus import MeterLabel, Strophe, Verse, YearBucket
from helpers import DATA, EXAMPLE_VERSES


@pytest.fixture(scope="session")
def fixture_path():
    return DATA / "fixture_corpus.jsonl"


@pytest.fixture(scope="session")
def fixture_strophes(fixture_path):
    return corpus.ingest(fixture_path)


@pytest.fixture(scope="session")
def example_strophe():
    verses = [Verse(t, rhyme_group=1 + i % 2, gold_meter=MeterLabel.IAMB)
              for i, t in enumerate(EXAMPLE_VERSES)]
    return Strophe(tuple(verses), YearBucket(1900))
