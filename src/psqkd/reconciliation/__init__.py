"""Eight-dimensional reconciliation: rotations, LDPC codes, decoding, bench."""

from .bench import (
    BenchReport,
    accepted_pairs,
    bench,
    gaussian_pairs,
    matched_channel,
    non_gaussian_label,
)
from .bp import decode_syndrome
from .ldpc import LdpcCode, load_alist, peg_construct, save_alist
from .multidim import (
    decode,
    encode_side_info,
    llr_scale,
    mu_of_snr,
    snr_estimate,
)
from .rotation import (
    OCTONION_BASIS,
    apply_rotation,
    rotation_coefficients,
)

__all__ = [
    "BenchReport",
    "LdpcCode",
    "OCTONION_BASIS",
    "accepted_pairs",
    "apply_rotation",
    "bench",
    "decode",
    "decode_syndrome",
    "encode_side_info",
    "gaussian_pairs",
    "llr_scale",
    "load_alist",
    "matched_channel",
    "mu_of_snr",
    "non_gaussian_label",
    "peg_construct",
    "rotation_coefficients",
    "save_alist",
    "snr_estimate",
]
