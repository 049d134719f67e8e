"""Deliberately broken per-symbol splitters, each failing one part of the
profile `symbol.validate_base` checks: the tests feed them to the
validator, the codec builder and the exact engines."""
from twoshare.symbol import BaseScheme, gstar


def identity_leak_scheme(share_size: int, secret_size: int) -> BaseScheme:
    """Puts the secret in the clear in share X."""
    return BaseScheme(
        name="identity-leak", secret_size=secret_size,
        share_size=share_size, rand_size=share_size,
        encode_fn=lambda s, u: (s, u),
        decode_fn=lambda x, y: x if x < secret_size else None)


def nondecodable_scheme(share_size: int, secret_size: int) -> BaseScheme:
    """Shares carry the randomness only; the pair never determines s."""
    return BaseScheme(
        name="non-decodable", secret_size=secret_size,
        share_size=share_size, rand_size=share_size,
        encode_fn=lambda s, u: (u, u),
        decode_fn=lambda x, y: gstar(share_size, secret_size, x, y))


def undersized_scheme(share_size: int, secret_size: int) -> BaseScheme:
    """Share alphabet smaller than the secret alphabet."""
    if share_size >= secret_size:
        raise ValueError("this scheme is broken only when M < |S|")
    return BaseScheme(
        name="undersized", secret_size=secret_size,
        share_size=share_size, rand_size=share_size,
        encode_fn=lambda s, u: ((s - u) % share_size, u),
        decode_fn=lambda x, y: gstar(share_size, secret_size, x, y))
