"""netguard: linear consensus networks under faulty and Byzantine agents.

Simulation of consensus iterations with misbehaving agents, resilience
bounds from graph connectivity, invariant-zero and left-invertibility
analysis of observer triples, geometric residual-generator synthesis,
and the complete and local identification procedures built on them.
"""

from .consensus import (Attack, ConsensusError, ConsensusMatrix, Trajectory,
                        attack_effect_constant, consensus_value,
                        exponential_input_bound, input_matrix,
                        principal_submatrix_spectral_radius,
                        random_consensus_matrix, simulate,
                        stubborn_agent_gain, unobservable_offset_is_neutral,
                        validate)
from .detect import (BlockDecomposition, CalibrationError, DetectionFilter,
                     IdentificationVerdict, LocalBank, ThresholdCalibration,
                     block_decompose, block_outputs, bound_curves,
                     build_local_bank, calibrate_threshold,
                     certified_bounds, complete_identification,
                     local_identification, threshold_crossing)
from .fdi import (ResidualGenerator, SynthesisReport, fdi_solvable,
                  max_controlled_invariant, min_conditioned_invariant,
                  run_residual, synthesize_residual_generator,
                  unobservability_subspace)
from .graph import (DiGraph, ResilienceReport, StructurePattern,
                    disjoint_path_count, find_vertex_cut, from_matrix,
                    generically_no_zero_dynamics, read_edge_list,
                    resilience_bounds, structural_generic_rank,
                    vertex_connectivity, write_edge_list)
from .numerics import (Subspace, TolerancePolicy, image, kernel,
                       left_fixed_vector, set_rank_tolerance, subspace_sum)
from .sysan import (InvariantZero, PencilAnalysis, Triple,
                    construct_undetectable_attack, first_markov_index,
                    invariant_zeros, is_left_invertible, local_observer_gain,
                    output_zeroing_input, pbh_detectable, pbh_stabilizable,
                    pencil_normal_rank, unidentifiability_witness,
                    zero_dynamics_stability)

__version__ = "0.1.0"
