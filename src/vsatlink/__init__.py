"""Complex-baseband VSAT<->satellite link simulator and budget calculator."""

__version__ = "0.1.0"

from .analysis import (  # noqa: F401
    BerReport,
    SpectrumEstimate,
    constellation_snapshot,
    estimate_psd,
    measure_ber,
    theoretical_qam_ber,
)
from .channel import (  # noqa: F401
    BOLTZMANN_J_PER_K,
    ImpairmentConfig,
    LinkGains,
    SalehParams,
    SatelliteChannel,
    phase_freq_offset,
    saleh_amplify,
)
from .errors import (  # noqa: F401
    ConfigError,
    FramingError,
    InsufficientDataError,
    ParameterError,
    PipelineError,
    VsatLinkError,
)
from .frames import BitFrame, ComplexFrame  # noqa: F401
from .linkbudget import (  # noqa: F401
    AntennaSpec,
    BudgetLeg,
    LinkBudgetReport,
    LinkGeometry,
    antenna_gain_db,
    combined_cn_db,
    compute_budget,
    free_space_path_loss_db,
    noise_power_dbw,
)
from .modem import (  # noqa: F401
    ModemConfig,
    constellation_points,
    generate_bits,
    qam_demodulate,
    qam_modulate,
    rrc_taps,
    rx_match,
    tx_shape,
)
from .receiver import (  # noqa: F401
    AutomaticGainControl,
    DcOffsetCompensator,
    phase_freq_correct,
)
from .scenario import (  # noqa: F401
    CompensationFlags,
    ScenarioConfig,
    load_scenario,
    scenario_from_dict,
)
