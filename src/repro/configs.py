"""Scenario configs: one description for the packet and fluid tiers.

A scenario config is a plain JSON-able mapping that describes an ATM
scenario completely (schema: ``docs/SCENARIOS.md``).
:func:`repro.scenarios.generic.build_atm` builds it as packets,
:func:`repro.fluid.scenarios.build_fluid` as flow cohorts, and the
equilibrium judge's oracle (:mod:`repro.obs.judge`) reads it from
:func:`topology`.  The paper's named
configurations are the functions collected in :data:`NAMED`.

Standard library only: the fluid core reads configs without importing
either packet stack.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

#: Seed of the named on/off scenario's phase draws when the caller gives
#: none (``seed=None`` gives fixed periods instead).
ONOFF_SEED = 7


# ----------------------------------------------------------------------
# validation and derived topology
# ----------------------------------------------------------------------
#: Traffic blocks: key -> (keys each entry needs, minimum route length).
_BLOCKS = {"sessions": ((), 2), "cbr": (("rate",), 1),
           "vbr": (("peak", "mean_on", "mean_off"), 1)}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _session_problems(session: Mapping[str, Any]) -> list[str]:
    """The session-only fields: on/off phases and the departure time."""
    problems = []
    onoff = session.get("onoff")
    if onoff and not (isinstance(onoff, Mapping) and all(
            _is_number(onoff.get(key)) and onoff[key] > 0
            for key in ("on", "off"))
            and isinstance(onoff.get("stream", ""), str)):
        problems.append("onoff needs positive 'on' and 'off' periods "
                        "(and a string 'stream')")
    if "stop" in session:
        stop, start = session["stop"], session.get("start", 0.0)
        if onoff:
            problems.append("cannot combine 'onoff' and 'stop'")
        elif not (_is_number(stop) and _is_number(start) and stop > start):
            problems.append(f"stop must be a time after its start, "
                            f"got {stop!r}")
    return problems


def _unknown(names: Any, switches: set[str]) -> list[Any]:
    """The entries of ``names`` that name no switch (names are strings)."""
    return [name for name in names
            if not (isinstance(name, str) and name in switches)]


def validate_config(config: Mapping[str, Any]) -> list[str]:
    """Every problem with a scenario config (empty = valid).

    A config that passes builds on either tier without a ``KeyError`` or
    ``TypeError`` from deep inside network wiring: names resolve (trunk
    endpoints, route hops, the bottleneck), every vc is unique, and each
    block carries the keys its builder reads.  Value ranges the network
    components check themselves (positive rates, parameter bounds) still
    raise from construction, with their own messages.
    """
    if not isinstance(config, Mapping):
        return ["config is not a mapping"]
    lists = {key: config.get(key) or [] for key in ("switches", "trunks",
                                                     *_BLOCKS)}
    problems = [f"{key!r} must be a list" for key, value in lists.items()
                if not isinstance(value, (list, tuple))]
    if problems:
        return problems
    problems = [f"{key!r} must be a non-empty list"
                for key in ("switches", "trunks", "sessions")
                if not lists[key]]
    names = lists["switches"]
    switches = {name for name in names if isinstance(name, str)}
    problems.extend(f"switch name {name!r} is not a string"
                    for name in _unknown(names, switches))
    # trunks are bidirectional port pairs, so adjacency is symmetric
    adjacent: set[tuple[str, str]] = set()
    for i, trunk in enumerate(lists["trunks"]):
        if not isinstance(trunk, Mapping) or not {"a", "b"} <= trunk.keys():
            problems.append(f"trunks[{i}] needs 'a' and 'b' switch names")
            continue
        ends = (trunk["a"], trunk["b"])
        if unknown := _unknown(ends, switches):
            problems.append(f"trunks[{i}] names unknown switch(es) "
                            f"{', '.join(map(repr, unknown))}")
        else:
            adjacent.update({ends, ends[::-1]})
    vcs: list[Any] = []
    for kind, (keys, min_hops) in _BLOCKS.items():
        for i, entry in enumerate(lists[kind]):
            where = f"{kind}[{i}]"
            if not isinstance(entry, Mapping):
                problems.append(f"{where} is not a mapping")
                continue
            missing = [key for key in ("vc", "route") + keys
                       if entry.get(key) in (None, "")]
            route = entry.get("route")
            if missing:
                problems.append(f"{where} needs {', '.join(missing)}")
            elif (not isinstance(route, (list, tuple))
                    or len(route) < min_hops):
                problems.append(
                    f"{where} route must list >= {min_hops} switches")
            elif not isinstance(entry["vc"], str):
                problems.append(f"{where} vc must be a string")
            elif unknown := _unknown(route, switches):
                problems.append(f"{where} route names unknown switch(es) "
                                f"{', '.join(map(repr, unknown))}")
            else:
                # every hop needs a trunk, or network wiring would
                # raise a KeyError deep inside the build
                problems.extend(
                    f"{where} route hop {a}->{b} has no trunk"
                    for a, b in zip(route, route[1:])
                    if (a, b) not in adjacent)
            if isinstance(entry.get("vc"), str):
                vcs.append(entry["vc"])
            if kind == "sessions":
                problems.extend(f"{where} {problem}"
                                for problem in _session_problems(entry))
    duplicates = sorted({vc for vc in vcs if vcs.count(vc) > 1})
    if duplicates:
        problems.append(f"duplicate vc name(s) {', '.join(duplicates)}")
    chosen = config.get("bottleneck")
    if chosen and (not isinstance(chosen, (list, tuple)) or len(chosen) != 2
                   or _unknown(chosen, switches)
                   or tuple(chosen) not in adjacent):
        problems.append(f"bottleneck {chosen!r} names no trunk")
    duration = config.get("duration", 0.25)
    if not _is_number(duration) or duration <= 0:
        problems.append(f"duration must be positive, got {duration!r}")
    rm_loss = config.get("rm_loss", 0.0)
    if not _is_number(rm_loss) or not 0.0 <= rm_loss < 1.0:
        problems.append(f"rm_loss must be in [0, 1), got {rm_loss!r}")
    return problems


def check_config(config: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` naming every problem :func:`validate_config`
    finds; both tier builders call it before building anything."""
    problems = validate_config(config)
    if problems:
        raise ValueError("invalid scenario config: " + "; ".join(problems))


def topology(config: Mapping[str, Any]
             ) -> tuple[dict[str, float], dict[str, list[str]]]:
    """``(capacities, routes)`` of the packet network a config describes.

    Matches :meth:`repro.atm.network.AtmNetwork.capacities` /
    ``routes()`` without building anything: trunks are bidirectional
    port pairs named ``"A->B"``, a session's route is the ordered trunk
    ports its switch list crosses.
    """
    link_rate = float(config.get("link_rate", 150.0))
    capacities: dict[str, float] = {}
    for trunk in config.get("trunks", ()):
        rate = float(trunk.get("rate", link_rate))
        capacities[f"{trunk['a']}->{trunk['b']}"] = rate
        capacities[f"{trunk['b']}->{trunk['a']}"] = rate
    routes = {
        session["vc"]: [f"{a}->{b}" for a, b in
                        zip(session["route"], session["route"][1:])]
        for session in config.get("sessions", ())
    }
    return capacities, routes


def bottleneck(config: Mapping[str, Any]) -> str:
    """The trunk port (``"A->B"``) whose queue/MACR series a run reports.

    ``bottleneck: [a, b]`` picks one explicitly; the default is the port
    crossed by the most sessions, ties broken by name so the choice is
    deterministic.
    """
    chosen = config.get("bottleneck")
    if chosen:
        return f"{chosen[0]}->{chosen[1]}"
    capacities, routes = topology(config)
    crossings = dict.fromkeys(capacities, 0)
    for path in routes.values():
        for port in path:
            crossings[port] += 1
    return max(sorted(crossings), key=crossings.__getitem__)


# ----------------------------------------------------------------------
# the named configurations
# ----------------------------------------------------------------------
#: Optional parameter overrides: a JSON object, or None for defaults.
Params = Mapping[str, Any] | None


def _config(switches: list[str], sessions: list[dict], duration: float,
            link_rate: float, session_params: Params, algorithm: str | None,
            algorithm_params: Params) -> dict[str, Any]:
    """A chain of ``switches`` carrying ``sessions``.

    The algorithm keys are set only when given, so a config built for
    an explicit algorithm factory claims no algorithm of its own."""
    if session_params is not None:
        for session in sessions:
            session["params"] = dict(session_params)
    config: dict[str, Any] = {
        "switches": list(switches),
        "trunks": [{"a": a, "b": b} for a, b in zip(switches, switches[1:])],
        "sessions": sessions,
        "link_rate": link_rate,
        "duration": duration,
    }
    if algorithm is not None:
        config["algorithm"] = algorithm
    if algorithm_params is not None:
        config["algorithm_params"] = dict(algorithm_params)
    return config


_DUMBBELL = ["S1", "S2"]


def staggered(n_sessions: int = 2, stagger: float = 0.03,
              duration: float = 0.25, link_rate: float = 150.0,
              session_params: Params = None, algorithm: str | None = None,
              algorithm_params: Params = None) -> dict[str, Any]:
    """n greedy sessions joining one bottleneck ``stagger`` seconds apart.

    The paper's introductory configuration (Fig. 2-3): convergence speed
    and fairness as sessions arrive.
    """
    if n_sessions < 1:
        raise ValueError(f"need >= 1 session, got {n_sessions!r}")
    sessions = [{"vc": f"s{i}", "route": list(_DUMBBELL),
                 "start": i * stagger} for i in range(n_sessions)]
    return _config(_DUMBBELL, sessions, duration, link_rate,
                   session_params, algorithm, algorithm_params)


def rtt(access_delays: tuple[float, ...] = (1e-5, 5e-4, 2e-3),
        duration: float = 0.3, link_rate: float = 150.0,
        session_params: Params = None, algorithm: str | None = None,
        algorithm_params: Params = None) -> dict[str, Any]:
    """Sessions with vastly different round-trip times share a link.

    Tests the paper's claim that Phantom's allocation is RTT-independent
    (every session is granted the same f·MACR), where the EPRCA-family
    thresholds produce RTT-dependent shares [CGBS94].
    """
    sessions = [{"vc": f"rtt{i}", "route": list(_DUMBBELL),
                 "access_delay": delay}
                for i, delay in enumerate(access_delays)]
    return _config(_DUMBBELL, sessions, duration, link_rate,
                   session_params, algorithm, algorithm_params)


def onoff(greedy: int = 1, bursty: int = 2, on_time: float = 0.02,
          off_time: float = 0.02, duration: float = 0.4,
          link_rate: float = 150.0,
          session_params: Params = None, algorithm: str | None = None,
          algorithm_params: Params = None) -> dict[str, Any]:
    """Greedy sessions sharing a link with on/off sessions (Fig. 4/22).

    Each bursty session draws its phases from the stream named after its
    vc, the paper scenarios' historical stream naming.
    """
    sessions = [{"vc": f"greedy{i}", "route": list(_DUMBBELL)}
                for i in range(greedy)]
    sessions += [{"vc": f"onoff{i}", "route": list(_DUMBBELL),
                  "onoff": {"on": on_time, "off": off_time,
                            "stream": f"onoff{i}"}}
                 for i in range(bursty)]
    return _config(_DUMBBELL, sessions, duration, link_rate,
                   session_params, algorithm, algorithm_params)


def parking(hops: int = 3, duration: float = 0.3,
            link_rate: float = 150.0,
            session_params: Params = None, algorithm: str | None = None,
            algorithm_params: Params = None) -> dict[str, Any]:
    """The multi-hop "beat-down" configuration.

    One long session crosses all ``hops`` trunks; each trunk also
    carries one single-hop cross session.  Binary/threshold schemes beat
    the long session down [BdJ94]; Phantom should hand it the same grant
    as everyone else at the true bottleneck.
    """
    if hops < 2:
        raise ValueError(f"need >= 2 hops, got {hops!r}")
    names = [f"S{i}" for i in range(1, hops + 2)]
    sessions = [{"vc": "long", "route": list(names)}]
    sessions += [{"vc": f"cross{i}", "route": [a, b]}
                 for i, (a, b) in enumerate(zip(names, names[1:]))]
    return _config(names, sessions, duration, link_rate, session_params,
                   algorithm, algorithm_params)


def transient(duration: float = 0.4, join_at: float = 0.1,
              leave_at: float = 0.25, link_rate: float = 150.0,
              session_params: Params = None, algorithm: str | None = None,
              algorithm_params: Params = None) -> dict[str, Any]:
    """A base session runs throughout; a second joins, then departs.

    Measures reclaim time: how quickly the survivor's rate returns to
    the single-session share after the departure.
    """
    if not 0 < join_at < leave_at < duration:
        raise ValueError("need 0 < join_at < leave_at < duration")
    sessions = [{"vc": "base", "route": list(_DUMBBELL)},
                {"vc": "visitor", "route": list(_DUMBBELL),
                 "start": join_at, "stop": leave_at}]
    return _config(_DUMBBELL, sessions, duration, link_rate,
                   session_params, algorithm, algorithm_params)


def background(n_sessions: int = 2, cbr_rate: float = 60.0,
               cbr_start: float = 0.15, cbr_stop: float = 0.30,
               duration: float = 0.45, link_rate: float = 150.0,
               algorithm: str | None = None,
               algorithm_params: Params = None) -> dict[str, Any]:
    """ABR sessions sharing a trunk with a guaranteed CBR stream (E23)."""
    sessions = [{"vc": f"s{i}", "route": list(_DUMBBELL)}
                for i in range(n_sessions)]
    cbr = [{"vc": "bg", "route": list(_DUMBBELL), "rate": cbr_rate,
            "start": cbr_start, "stop": cbr_stop}]
    return {**_config(_DUMBBELL, sessions, duration, link_rate, None,
                      algorithm, algorithm_params), "cbr": cbr}


def weighted(weights: Mapping[str, float] | None = None,
             duration: float = 0.3, link_rate: float = 150.0,
             algorithm: str | None = None,
             algorithm_params: Params = None) -> dict[str, Any]:
    """Weighted-Phantom fair-share split over one trunk (E25)."""
    if weights is None:
        weights = {"w1": 1.0, "w2": 2.0, "w4": 4.0}
    sessions = [{"vc": name, "route": list(_DUMBBELL),
                 "params": {"weight": weights[name]}}
                for name in sorted(weights)]
    return _config(_DUMBBELL, sessions, duration, link_rate, None,
                   algorithm, algorithm_params)


#: Every named configuration: name -> config function.  The packet tier
#: registers each as ``atm.<name>``.  The paper configurations take
#: ``session_params`` (per-session ABR overrides) besides the
#: ``algorithm``/``algorithm_params`` choice every one accepts.
NAMED: dict[str, Callable[..., dict[str, Any]]] = {
    "staggered": staggered,
    "rtt": rtt,
    "onoff": onoff,
    "parking": parking,
    "transient": transient,
    "background": background,
    "weighted": weighted,
}

#: The paper's own configurations, the ones ``repro atm`` runs.
PAPER = ("staggered", "rtt", "onoff", "parking", "transient")

#: The configurations the fluid tier also registers, as ``fluid.<name>``.
FLUID = ("staggered", "onoff", "parking", "transient")
