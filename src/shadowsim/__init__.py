"""Dual-register ("shadow") state-vector quantum simulator.

Every quantum state carries a mirrored shadow amplitude record in a modeled
quantum vacuum; all operations update the primary and shadow registers in the
same atomic step.  One mirror contract (``register.check_dual``) validates
every dual object, and one projection kernel (``measurement``) serves
single-qubit and Bell measurement and the Bell-decomposition oracle.  The
package provides truncated Fock-space ladder algebra, multi-qubit dual
registers, projective and Bell-basis measurement, the teleportation /
entanglement-swapping protocols with brute-force decomposition oracles, 1D
Schroedinger wave dynamics with zone-partition collapse, and a deterministic
CLI.
"""

from types import ModuleType as _ModuleType

from .fock import (
    ModeGrid,
    DualFockState,
    DispersionParams,
    vacuum,
    apply_b,
    apply_b_dagger,
    annihilation_matrix,
    creation_matrix,
    commutator_residual,
    anticommutator_residual,
    position_create,
)
from .register import (
    BellKind,
    DualRegister,
    from_amplitudes,
    bell_pair,
    tensor,
    apply_unitary,
    fidelity,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    HADAMARD,
)
from .measurement import (
    MeasurementRecord,
    Z_BASIS,
    X_BASIS,
    projective_measure,
    bell_measure,
    measure_shots,
)
from .protocols import (
    TeleportationResult,
    SwapResult,
    ReadoutStats,
    ProductStateStats,
    bell_branches,
    reassemble_branches,
    swap_input_state,
    derive_correction_table,
    run_teleportation,
    teleportation_shots,
    swap_outcome_map,
    run_entanglement_swap,
    swap_shots,
    entangled_readout_demo,
    product_plus_state,
    product_state_demo,
)
from .waves import (
    WaveGrid,
    Potential,
    ZonePartition,
    SlitGeometry,
    DoubleSlitResult,
    gaussian_packet,
    from_samples,
    evolve,
    free_propagate,
    zone_coefficients,
    zone_profile,
    collapse_to,
    collapse_detect,
    analytic_screen_intensity,
    fringe_visibility,
    double_slit_accumulate,
)
from .errata import teleport_decomposition, swap_decomposition, build_erratum_report

# every name imported above, in import order; the submodules the imports bind
# as attributes of the package are not exports
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
