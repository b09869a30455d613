"""Declarative builders for every configuration in the paper's evaluation."""

from repro.scenarios.generic import (on_off, parking_lot, rtt_spread,
                                     staggered_start, transient)
from repro.scenarios.results import AtmRun, TcpRun
from repro.scenarios.tcp import (TCP_PHANTOM_PARAMS, TCP_RENO_PARAMS,
                                 drop_tail_policy, many_flows, mixed_stacks,
                                 rtt_fairness, selective_discard_policy,
                                 selective_efci_policy,
                                 selective_quench_policy,
                                 selective_red_policy, tcp_parking_lot,
                                 two_way, vegas_thresholds)
from repro.scenarios.workloads import OnOffDriver

__all__ = [
    "on_off",
    "parking_lot",
    "rtt_spread",
    "staggered_start",
    "transient",
    "AtmRun",
    "TcpRun",
    "TCP_PHANTOM_PARAMS",
    "TCP_RENO_PARAMS",
    "drop_tail_policy",
    "many_flows",
    "rtt_fairness",
    "selective_discard_policy",
    "selective_efci_policy",
    "selective_quench_policy",
    "selective_red_policy",
    "tcp_parking_lot",
    "mixed_stacks",
    "two_way",
    "vegas_thresholds",
    "OnOffDriver",
]
