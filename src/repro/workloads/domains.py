"""Application-domain taxonomy of the CPU2017 suite (Table VIII).

The paper classifies the CPU2017 benchmarks by application domain and
marks, per domain, the benchmarks whose performance behaviour is distinct
enough that all of them must be run to cover the domain's performance
spectrum (rate versions preferred when the rate/speed twins behave alike,
because they are shorter-running).
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "INT_DOMAINS",
    "FP_DOMAINS",
    "all_domains",
]

#: Table VIII, INT half: domain -> benchmark names.
INT_DOMAINS: Dict[str, Tuple[str, ...]] = {
    "Compiler/Interpreter": (
        "502.gcc_r", "602.gcc_s", "500.perlbench_r", "600.perlbench_s",
    ),
    "Compression": ("525.x264_r", "557.xz_r", "625.x264_s", "657.xz_s"),
    "Artificial intelligence": (
        "531.deepsjeng_r", "631.deepsjeng_s", "541.leela_r", "641.leela_s",
        "548.exchange2_r", "648.exchange2_s",
    ),
    "Combinatorial optimization": ("505.mcf_r", "605.mcf_s"),
    "Discrete event simulation": ("520.omnetpp_r", "620.omnetpp_s"),
    "Document processing": ("523.xalancbmk_r", "623.xalancbmk_s"),
}

#: Table VIII, FP half: domain -> benchmark names.
FP_DOMAINS: Dict[str, Tuple[str, ...]] = {
    "Physics": (
        "507.cactubssn_r", "549.fotonik3d_r", "607.cactubssn_s",
        "649.fotonik3d_s",
    ),
    "Fluid dynamics": (
        "519.lbm_r", "503.bwaves_r", "619.lbm_s", "603.bwaves_s",
    ),
    "Molecular dynamics": ("508.namd_r", "544.nab_r", "644.nab_s"),
    "Visualization": (
        "511.povray_r", "526.blender_r", "538.imagick_r", "638.imagick_s",
    ),
    "Biomedical": ("510.parest_r",),
    "Climatology": (
        "521.wrf_r", "527.cam4_r", "628.pop2_s", "554.roms_r",
        "621.wrf_s", "627.cam4_s", "654.roms_s",
    ),
}

#: Benchmarks the paper marks bold in Table VIII (distinct behaviour that
#: must be covered when sampling the domain).
PAPER_DISTINCT: Tuple[str, ...] = (
    "502.gcc_r", "500.perlbench_r",
    "525.x264_r", "557.xz_r", "625.x264_s", "657.xz_s",
    "531.deepsjeng_r", "541.leela_r", "548.exchange2_r",
    "505.mcf_r",
    "520.omnetpp_r", "620.omnetpp_s",
    "523.xalancbmk_r", "623.xalancbmk_s",
    "507.cactubssn_r", "549.fotonik3d_r", "649.fotonik3d_s",
    "519.lbm_r", "503.bwaves_r", "619.lbm_s", "603.bwaves_s",
    "508.namd_r", "544.nab_r",
    "511.povray_r", "526.blender_r", "538.imagick_r", "638.imagick_s",
    "510.parest_r",
    "521.wrf_r", "527.cam4_r", "554.roms_r", "654.roms_s",
)


def all_domains() -> Dict[str, Tuple[str, ...]]:
    """The full Table VIII mapping (INT and FP merged)."""
    merged = dict(INT_DOMAINS)
    merged.update(FP_DOMAINS)
    return merged
