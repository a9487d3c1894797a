"""Registry of all kernels in the paper's Fig. 4 order (plus ``fdct``).

Figure 4's x-axis lists ten kernels; ``fdct`` appears in Table II (both
encoders use it) but not in the figure, so it is registered last and
flagged as extra.
"""

from repro.kernels.block import ADDBLOCK, COMP
from repro.kernels.color import RGB, YCC
from repro.kernels.dct import FDCT, IDCT
from repro.kernels.gsmk import LTPFILT, LTPPAR
from repro.kernels.motion import MOTION1, MOTION2
from repro.kernels.sampling import H2V2

#: All kernels, keyed by name, in presentation order.
KERNELS = {
    spec.name: spec
    for spec in (
        IDCT, MOTION1, MOTION2, COMP, ADDBLOCK,
        RGB, YCC, H2V2, LTPPAR, LTPFILT, FDCT,
    )
}

#: The ten kernels shown in the paper's Fig. 4, in x-axis order.
FIG4_KERNELS = (
    "idct", "motion1", "motion2", "comp", "addblock",
    "rgb", "ycc", "h2v2", "ltppar", "ltpfilt",
)

#: Kernels vectorised per application (Table II / §IV-B).
APP_KERNELS = {
    "jpegenc": ("rgb", "fdct"),
    "jpegdec": ("h2v2", "ycc"),
    "mpeg2enc": ("motion1", "motion2", "idct", "fdct"),
    "mpeg2dec": ("comp", "addblock", "idct"),
    "gsmenc": ("ltppar",),
    "gsmdec": ("ltpfilt",),
}
