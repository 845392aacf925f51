"""Seeded inputs, operations and output checks of the three workloads.

Every workload is a closed loop: one caller runs one operation after the
other, always on the same inputs. The program sees only the generated trip
CSV and report files, through its command-line entry point ``cli.main``.

- ``hour_trip``: the one-hour trip of acceptance criterion 10 through one
  ``analyze`` call. Its 3601 GPS fixes and about 5600 bump candidates make
  the finish pass (speed gate, geolocation, merge) weigh heavily.
- ``fleet_commute``: 30 two-minute trips over one route, each through its
  own ``analyze`` call, then one ``aggregate`` over their reports. The
  per-sample layers do the same work as in ``hour_trip`` but with 121 fixes
  per trip geolocation almost vanishes, while per-call costs (config load,
  file open, report write) repeat 30 times. Its map has few clusters with
  many members each.
- ``city_map``: about 4.2k located events in 60 report files spread over
  5 x 5 km, through one ``aggregate`` call. No analysis runs; the map has
  about 1.5k sparse clusters, so the events x clusters scan dominates.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import scoring

# Default analysis window; a trip of n samples must report n // 32 segments.
WINDOW = 32
SAMPLE_RATE_HZ = 50.0
CLUSTER_RADIUS_M = 15.0
_M_PER_DEG_LAT = scoring.EARTH_RADIUS_M * math.pi / 180.0


@dataclass
class Trip:
    csv: Path
    report: Path
    samples: int
    labels: dict


@dataclass
class Result:
    """What one operation left behind: file bytes and the aggregate's time."""

    reports: list[bytes] = field(default_factory=list)
    map: bytes | None = None
    map_s: float | None = None


class Workload:
    """Base: ``trips`` to analyze, then ``map_inputs`` to aggregate, if any."""

    name = ""
    # Whether every planted spot seen by two or more trips must be confirmed.
    confirm_spots = False

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.trips: list[Trip] = []
        self.map_inputs: list[Path] = []
        self.map_out = workdir / "map.json"
        self.spots: list[dict] = []
        # Located events in generated reports; analyzed ones are counted per run.
        self.located_events = 0
        self._first: Result | None = None

    @property
    def samples(self) -> int:
        return sum(t.samples for t in self.trips)

    def _write_trip(self, scenario, generate_trip) -> None:
        csv_text, labels_text = generate_trip(scenario)
        csv = self.workdir / f"{scenario.name}.csv"
        csv.write_text(csv_text, encoding="utf-8")
        labels = json.loads(labels_text)
        samples = round(labels["duration_ms"] * SAMPLE_RATE_HZ / 1000.0)
        self.trips.append(Trip(csv, self.workdir / f"{scenario.name}.json", samples, labels))

    def commands(self) -> list[list[str]]:
        """The ``roadsense`` command lines of one operation, in order."""
        argvs = [["analyze", str(t.csv), "--out", str(t.report)] for t in self.trips]
        if self.map_inputs:
            argvs.append(["aggregate", *map(str, self.map_inputs), "--out", str(self.map_out)])
        return argvs

    def collect(self, map_s: float | None = None) -> Result:
        """The output files the last operation wrote."""
        return Result(
            reports=[t.report.read_bytes() for t in self.trips],
            map=self.map_out.read_bytes() if self.map_inputs else None,
            map_s=map_s,
        )

    def run(self, call) -> Result:
        """One operation; ``call(argv)`` runs ``cli.main`` (traced or not)."""
        map_s = None
        for argv in self.commands():
            t0 = perf_counter()
            code = call(argv)
            if argv[0] == "aggregate":
                map_s = perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"roadsense {argv[0]} exited with {code}")
        return self.collect(map_s)

    def check(self, result: Result, parse_report) -> list[str]:
        """Every failed output check of one operation (empty when correct).

        Checks hold for any detector that finds the injected bumps, so a
        change to which other bumps fire does not fail them.
        """
        failures: list[str] = []
        if self._first is None:
            self._first = result
        elif (result.reports, result.map) != (self._first.reports, self._first.map):
            failures.append("output bytes differ from the first run on the same input")
        located = self.located_events
        for trip, raw in zip(self.trips, result.reports):
            text = raw.decode("utf-8")
            try:
                parse_report(text)
            except Exception as exc:  # any rejection of our own output is a failure
                failures.append(f"{trip.csv.name}: report does not read back: {exc}")
            payload = json.loads(text)
            segments = payload["stats"]["segments"]
            if segments != trip.samples // WINDOW:
                failures.append(
                    f"{trip.csv.name}: {segments} segments, expected {trip.samples // WINDOW}"
                )
            score = scoring.bump_scores(payload["events"], trip.labels)
            if score["bumps_recalled"] != score["bumps_labelled"]:
                failures.append(
                    f"{trip.csv.name}: {score['bumps_recalled']} of "
                    f"{score['bumps_labelled']} injected bumps recalled"
                )
            located += sum(1 for e in payload["events"] if e["lat"] is not None)
        if result.map is not None:
            payload = json.loads(result.map)
            counted = sum(c["event_count"] for c in payload["clusters"] + payload["discarded"])
            if counted != located:
                failures.append(f"map holds {counted} events, {located} located events fed in")
            if self.confirm_spots:
                score = scoring.map_scores(payload["clusters"], self.spots, CLUSTER_RADIUS_M)
                if score["hazards_recalled"] != score["hazards_planted"]:
                    failures.append(
                        f"{score['hazards_recalled']} of {score['hazards_planted']} "
                        "multi-trip spots confirmed"
                    )
        return failures

    def quality(self, result: Result) -> dict:
        """Detection scores of one operation's outputs against ground truth."""
        out: dict = {}
        if self.trips:
            hours = sum(t.labels["duration_ms"] for t in self.trips) / scoring.MS_PER_HOUR
            recalled = labelled = 0
            false_s = false_n = 0.0
            onset: list[float] = []
            for trip, raw in zip(self.trips, result.reports):
                events = json.loads(raw)["events"]
                s = scoring.bump_scores(events, trip.labels)
                trip_hours = trip.labels["duration_ms"] / scoring.MS_PER_HOUR
                recalled += s["bumps_recalled"]
                labelled += s["bumps_labelled"]
                false_s += s["false_bump_s_per_h"] * trip_hours
                false_n += s["false_bumps_per_h"] * trip_hours
                err = scoring.rough_onset_err_s(events, trip.labels)
                if err is not None:
                    onset.append(err)
            out["bump_recall"] = recalled / labelled if labelled else None
            out["false_bump_s_per_h"] = false_s / hours
            out["false_bumps_per_h"] = false_n / hours
            out["rough_onset_err_s"] = sum(onset) / len(onset) if onset else None
        if result.map is not None:
            clusters = json.loads(result.map)["clusters"]
            s = scoring.map_scores(clusters, self.spots, CLUSTER_RADIUS_M)
            out["hazard_recall"] = s["hazard_recall"]
            out["false_hazards"] = s["false_hazards"]
        return out


class HourTrip(Workload):
    name = "hour_trip"

    def __init__(self, workdir: Path, seed: int, rs) -> None:
        super().__init__(workdir)
        scn = rs.Scenario(
            name="hour",
            duration_s=3600.0,
            noise_sigma_g=0.02,
            rough=(rs.RoughPatch(600.0, 640.0, 8.0),),
            bumps=(rs.BumpSpec(1200.0, 1.5, 6), rs.BumpSpec(2400.0, 1.8, 6)),
            speed_profile=(rs.SpeedPoint(0.0, 5.0),),
            rng_seed=seed,
        )
        self._write_trip(scn, rs.generate_trip)


class FleetCommute(Workload):
    name = "fleet_commute"
    TRIPS = 30
    DURATION_S = 120.0
    ORIGIN = (1.3521, 103.8198)
    SHARED_BUMPS = 3
    # Bump positions in metres along the route, 30 m apart so no two spots
    # fall within one cluster radius; every trip reaches the last one.
    SLOTS_M = [60.0 + 30.0 * k for k in range(35)]

    def __init__(self, workdir: Path, seed: int, rs) -> None:
        super().__init__(workdir)
        rng = random.Random(seed)
        slots = list(self.SLOTS_M)
        rng.shuffle(slots)
        shared, own = slots[: self.SHARED_BUMPS], slots[self.SHARED_BUMPS :]
        lat0, lon0 = self.ORIGIN
        trips_per_slot = {d: self.TRIPS for d in shared} | {d: 1 for d in own[: self.TRIPS]}
        self.spots = [
            {"kind": "bump", "lat": lat0 + d / _M_PER_DEG_LAT, "lon": lon0, "trips": trips}
            for d, trips in trips_per_slot.items()
        ]
        for i in range(self.TRIPS):
            speed = rng.uniform(10.0, 12.0)
            # Heights at 1.5 g and above: a bump any sound detector must find.
            bumps = tuple(
                rs.BumpSpec(d / speed, rng.uniform(1.5, 2.0), 6)
                for d in sorted(shared + [own[i]])
            )
            scn = rs.Scenario(
                name=f"commute-{i:02d}",
                duration_s=self.DURATION_S,
                noise_sigma_g=rng.uniform(0.001, 0.02),
                device_gain=rng.uniform(0.6, 1.0),
                bumps=bumps,
                speed_profile=(rs.SpeedPoint(0.0, speed),),
                origin_lat=lat0,
                origin_lon=lon0,
                rng_seed=rng.randrange(2**31),
            )
            self._write_trip(scn, rs.generate_trip)
        self.map_inputs = [t.report for t in self.trips]


class CityMap(Workload):
    name = "city_map"
    confirm_spots = True
    TRIPS = 60
    SIDE_M = 5000.0
    CELL_M = 100.0
    SPOTS = 1500
    CENTRE = (1.3521, 103.8198)
    # Spots sit within +-30 m of their cell centre and sightings within
    # +-3 m of their spot: spots stay over 40 m apart, more than two radii.
    SPOT_JITTER_M = 30.0
    SIGHTING_JITTER_M = 3.0

    def __init__(self, workdir: Path, seed: int, rs) -> None:
        super().__init__(workdir)
        rng = random.Random(seed)
        lat0, lon0 = self.CENTRE
        m_per_deg_lon = _M_PER_DEG_LAT * math.cos(math.radians(lat0))
        per_side = int(self.SIDE_M / self.CELL_M)
        cells = rng.sample(range(per_side * per_side), self.SPOTS)

        def to_latlon(x_m: float, y_m: float) -> tuple[float, float]:
            return lat0 + y_m / _M_PER_DEG_LAT, lon0 + x_m / m_per_deg_lon

        events: list[list] = [[] for _ in range(self.TRIPS)]
        for cell in cells:
            cx = (cell % per_side + 0.5) * self.CELL_M - self.SIDE_M / 2
            cy = (cell // per_side + 0.5) * self.CELL_M - self.SIDE_M / 2
            x = cx + rng.uniform(-self.SPOT_JITTER_M, self.SPOT_JITTER_M)
            y = cy + rng.uniform(-self.SPOT_JITTER_M, self.SPOT_JITTER_M)
            kind = "bump" if rng.random() < 0.7 else "rough"
            trips = rng.randint(2, 6) if rng.random() < 0.6 else 1
            lat, lon = to_latlon(x, y)
            self.spots.append({"kind": kind, "lat": lat, "lon": lon, "trips": trips})
            for trip in rng.sample(range(self.TRIPS), trips):
                j = self.SIGHTING_JITTER_M
                ev_lat, ev_lon = to_latlon(x + rng.uniform(-j, j), y + rng.uniform(-j, j))
                t_ms = rng.randrange(3_600_000)
                if kind == "bump":
                    ev = rs.RoadEvent("bump", t_ms, t_ms, -rng.uniform(1.0, 4.0))
                else:
                    ev = rs.RoadEvent("rough", t_ms, t_ms + rng.randrange(2000, 30000), rng.randint(1, 3))
                ev.lat, ev.lon = ev_lat, ev_lon
                events[trip].append(ev)
        for trip in range(self.TRIPS):
            # One event per trip fell in a GPS gap: aggregate must skip it.
            t_ms = rng.randrange(3_600_000)
            events[trip].append(rs.RoadEvent("bump", t_ms, t_ms, -2.0))
        for i, evs in enumerate(events):
            trip_id = f"city-{i:02d}"
            evs.sort(key=lambda e: (e.t_start_ms, e.kind, e.t_end_ms))
            for ev in evs:
                ev.trip_id = trip_id
            report = rs.TripReport(trip_id, "", SAMPLE_RATE_HZ, evs, rs.TripStats(segments=5625))
            path = workdir / f"{trip_id}.json"
            path.write_text(rs.write_report(report), encoding="utf-8")
            self.map_inputs.append(path)
            self.located_events += sum(1 for e in evs if e.lat is not None)


WORKLOADS = {w.name: w for w in (HourTrip, FleetCommute, CityMap)}
