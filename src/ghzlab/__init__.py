"""Numerical laboratory for an on-chip path-encoded 4-photon GHZ experiment."""

__version__ = "0.1.0"

from .chip import (HeaterCalibration, PreparationStage, full_unitary,
                   heater_forward, heater_solve, measurement_unitary,
                   preparation_unitary)
from .qmath import (PauliLabel, fidelity_to_pure, ghz4, pauli_operator,
                    permanent, project_to_physical, purity)
from .simulator import (DetectorModel, LossBudget, OutcomeDistribution,
                        coincidence_rate, outcome_distribution, qubit_distribution,
                        sample_counts)
from .source import (EmissionProbabilities, MasterFractions, SourceSpec,
                     enumerate_joint_inputs, fit_master_fractions, input_mixture,
                     solve_pair_probabilities)
from .analysis import (BellResult, CountTable, WitnessResult, bell_settings,
                       bell_value, correlators, fit_phase_scan, linear_inversion,
                       max_fidelity_over_phase, mle_reconstruct,
                       monte_carlo_error, phase_witness, stabilizer_witness,
                       tomography_settings)
from .qss import QssReport, classify_bases, run_qss
