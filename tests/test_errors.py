"""The error hierarchy: every error pickles whole, so it can cross from a
forked worker to the parent with its type, message and exit code."""

import pickle

import pytest

from darl import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


SAMPLES = {
    errors.DarlError: errors.DarlError("generic failure"),
    errors.ConfigError: errors.ConfigError("rho", "must lie in [0, 0.25)"),
    errors.DataFormatError: errors.DataFormatError("short header", offset=12),
    errors.BadMagicError: errors.BadMagicError("bad magic b'XXXX'", 0),
    errors.TruncatedPayloadError: errors.TruncatedPayloadError("payload ends early"),
    errors.NonFiniteValueError: errors.NonFiniteValueError("non-finite model parameter"),
    errors.DuplicateIdError: errors.DuplicateIdError("duplicate id 'row-1'"),
    errors.DimensionMismatchError: errors.DimensionMismatchError("dims differ: 8 vs 4"),
    errors.SingularCovarianceError: errors.SingularCovarianceError("not positive definite"),
    errors.DivergenceError: errors.DivergenceError("non-finite model parameter"),
    errors.CheckpointError: errors.CheckpointError("crc mismatch"),
    errors.MissingArtifactError: errors.MissingArtifactError("run/thresholds.json", "fit-ood"),
    errors.RunDirError: errors.RunDirError("cannot create run/"),
    errors.WorkerError: errors.WorkerError("worker process 1 ended with exit status -9"),
}


def test_every_error_class_has_a_sample():
    assert set(SAMPLES) == {errors.DarlError, *_subclasses(errors.DarlError)}


@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
@pytest.mark.parametrize("error", SAMPLES.values(), ids=lambda e: type(e).__name__)
def test_errors_survive_a_pickle_round_trip(error, protocol):
    back = pickle.loads(pickle.dumps(error, protocol))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)
    assert back.exit_code == error.exit_code
