"""The exception hierarchy: one catchable root, specific fault subtypes."""

import inspect

import pytest

from repro import errors
from repro.errors import (
    ConfigError,
    FaultError,
    ReproError,
    RetryExhaustedError,
)


def all_error_classes():
    return [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
            if issubclass(obj, Exception) and obj.__module__ == errors.__name__]


def test_every_library_error_derives_from_repro_error():
    classes = all_error_classes()
    assert classes, "no exception classes found in repro.errors"
    for cls in classes:
        assert issubclass(cls, ReproError), f"{cls.__name__} escapes the root"


def test_every_error_is_documented():
    for cls in all_error_classes():
        assert cls.__doc__ and cls.__doc__.strip(), f"{cls.__name__} undocumented"


def test_fault_hierarchy():
    assert issubclass(FaultError, ReproError)
    assert issubclass(RetryExhaustedError, FaultError)
    # One except-clause catches the whole reliability layer.
    with pytest.raises(FaultError):
        raise RetryExhaustedError("gave up after 16 retries")


def test_config_validation_uses_config_error():
    from repro.faults import ReliabilityConfig
    with pytest.raises(ConfigError):
        ReliabilityConfig(timeout=-1.0)
    with pytest.raises(ConfigError):
        ReliabilityConfig(backoff=0.5)
    with pytest.raises(ConfigError):
        ReliabilityConfig(max_retries=0)
