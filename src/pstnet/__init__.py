"""pstnet: continuous-time quantum walks, perfect state transfer checks,
and switching-based routing on hypercube-derived networks."""

__version__ = "0.1.0"

from .graphs import (Edge, MarkingScheme, SignedWeightedGraph, cartesian,
                     complete_graph, corona, cycle_graph, hypercube, is_balanced,
                     laplacian, make_graph, path_graph)
from .spectral import (Spectrum, TransferReport, check_pst_conditions,
                       max_fidelity_scan, rationality_check, transfer_amplitude,
                       walk_spectrum)
from .routing import (HopPlan, NetworkLabeling, SwitchPlan, build_network,
                      classify_neighborhood, execute_route, find_subhypercube, grow,
                      plan_route, swap_baseline, widen_labels)
from .chains import (ChainSpec, chain_pst_verify, column_project, pst_chain,
                     unmodulated_no_pst_scan)
from .corona_lab import (ScanTable, corona_seed_spectrum, corona_spectrum,
                         fidelity_vs_m, iterate_corona, net_regularity)
from .qudit import (CommutingFamily, QuditState, commuting_family, cycle_family,
                    complete_family, qudit_transfer, transfer_amplitude_qudit,
                    unitarity_audit)
from .transmon import (CouplerConfig, CouplingReport, coupling_report,
                       find_cutoff, parse_coupler_config, pst_time,
                       three_body_oracle)
from .fileio import emit_csv, parse_graph_file
