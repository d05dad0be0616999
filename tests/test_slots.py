"""Every record dataclass declares ``__slots__``, so that a held record
carries no per-instance ``__dict__``."""

import dataclasses
import inspect

import pytest

from verseforge import corpus, formats, generation, phonology, tokenizers, validation


@pytest.mark.parametrize("module", [corpus, formats, generation, phonology, tokenizers,
                                    validation], ids=lambda m: m.__name__)
def test_every_dataclass_is_slotted(module):
    classes = [cls for _, cls in inspect.getmembers(module, dataclasses.is_dataclass)
               if cls.__module__ == module.__name__]
    assert classes
    for cls in classes:
        assert "__slots__" in vars(cls), cls.__name__
        assert not hasattr(cls.__new__(cls), "__dict__"), cls.__name__
