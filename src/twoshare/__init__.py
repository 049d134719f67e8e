"""Two-out-of-two secret sharing with built-in forgery detection.

The package splits a secret block into shares X and Y so that either
share alone carries no information about the secret, the pair recombines
to the secret, and a share forged by someone who has seen neither
legitimate share (an impersonation) is caught with probability
approaching one as the block grows.  A share holder who substitutes the
other share is not covered.
"""
from ._version import __version__
from .outcome import DecodeOutcome, REJECT
from .prob import (
    PMF,
    RandomStream,
    CapExceededError,
    entropy,
    binary_entropy,
)
from .typical import (
    GammaSchedule,
    TypicalIndex,
    EmptyTypicalSetError,
    build_index,
    is_typical,
    atypical_mass_mc,
)
from .block import (
    BlockShare,
    BlockRandomness,
    BlockwiseParams,
    BlockQuantities,
    floor_pow2,
    encode,
    accepts,
    decode,
    exact_quantities,
)
from .symbol import (
    BaseScheme,
    ValidationReport,
    SymbolwiseCodec,
    fstar,
    gstar,
    modular_scheme,
    validate_base,
    make_codec,
    encode_n,
    decode_n,
    accepts_n,
)
from .attack import (
    AttackResult,
    BoundCheck,
    blockwise_attack,
    symbolwise_attack,
    logsum_bound_check,
    fano_check,
    converse_exponent_check,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    RunRecord,
    ConfigError,
    run_experiment,
    emit_csv,
    emit_jsonl,
    emit_report,
    read_report_jsonl,
)
