#!/usr/bin/env bash
# Smoke job: lint (when available), tier-1 tests, a vector-vs-object
# backend parity check, a kill-and-resume check of the run journal, a
# fleet-soak SIGKILL/recovery check, a supervised worker-chaos soak
# (SIGKILL/hang/crash shard workers at 100k-app scale, bit-identical
# recovery), the same chaos at 250k apps with events batched into
# 64-event worker frames (respawns replaying only journal tails), and
# one traced chaos run whose JSON-lines trace is validated end to end.
#
# Usage: scripts/smoke.sh   (from the repository root)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== parallel determinism =="
python - <<'EOF'
from repro.experiments.simulate import simulate
from repro.sim.rng import RandomStreams


def draw(streams: RandomStreams) -> float:
    return float(streams.get("x").random())


serial = simulate(draw, reps=8, seed=97, workers=1)
parallel = simulate(draw, reps=8, seed=97, workers=2)
assert parallel.values == serial.values, (
    f"parallel map changed values: {parallel.values} != {serial.values}"
)
print(f"ok: workers=2 bit-identical to serial over {serial.n} replications")
EOF

echo "== dual-backend parity =="
# The vector backend must agree with the object engine on a supported
# (PS-discipline) workload, and the --backend flag must reach the CLI.
python -m repro --backend vector --list >/dev/null
python - <<'EOF'
from repro.core.workload import ApplicationProfile
from repro.experiments.simulate import BurstProbe, SimSpec, simulate
from repro.platforms.specs import CpuSpec, SunParagonSpec

spec = SimSpec(
    platform=SunParagonSpec(cpu=CpuSpec(discipline="ps")),
    probe=BurstProbe(1024, 100, "out"),
    contenders=(
        ApplicationProfile("c25", comm_fraction=0.25, message_size=200),
        ApplicationProfile("c76", comm_fraction=0.76, message_size=200),
    ),
)
vec = simulate(spec, reps=8, seed=97, backend="vector")
obj = simulate(spec, reps=8, seed=97, backend="object")
assert vec.backend == "vector" and vec.fallback_reason is None, vec.fallback_reason
worst = max(
    abs(a - b) / max(1e-12, abs(b)) for a, b in zip(vec.values, obj.values)
)
assert worst <= 1e-9, f"vector diverged from object engine: {worst:.3e} relative"
print(f"ok: vector matches object over {vec.n} replications (worst {worst:.1e} rel)")
EOF

echo "== kill -9 and resume =="
resume_dir="$(mktemp -d -t resume-smoke.XXXXXX)"
# Reference: an uninterrupted journaled sweep.
python -m repro saturation chaos --quick \
    --journal "$resume_dir/ref.jsonl" --outdir "$resume_dir/ref" >/dev/null

# Interrupted run: SIGKILL the sweep mid-flight, then resume it.
python -m repro saturation chaos --quick \
    --journal "$resume_dir/run.jsonl" --outdir "$resume_dir/out" >/dev/null &
victim=$!
sleep 2.5
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
[ -s "$resume_dir/run.jsonl" ] || {
    echo "error: journal empty before the kill (sweep too fast/slow?)" >&2
    exit 1
}
python -m repro saturation chaos --quick \
    --resume "$resume_dir/run.jsonl" --outdir "$resume_dir/out"

python - "$resume_dir" <<'EOF'
import json
import sys
from pathlib import Path

resume_dir = Path(sys.argv[1])


def strip_volatile(obj):
    """Drop the wall-clock stamp; everything else must be bit-identical."""
    if isinstance(obj, dict):
        return {
            k: strip_volatile(v) for k, v in obj.items() if k != "created_unix"
        }
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


checked = 0
for ref_file in sorted((resume_dir / "ref").glob("*.json")):
    resumed_file = resume_dir / "out" / ref_file.name
    assert resumed_file.exists(), f"missing after resume: {ref_file.name}"
    ref = strip_volatile(json.loads(ref_file.read_text()))
    out = strip_volatile(json.loads(resumed_file.read_text()))
    assert ref == out, f"resumed output differs in {ref_file.name}"
    checked += 1
assert checked, "no JSON results to compare"
print(f"ok: SIGKILLed+resumed sweep bit-identical across {checked} files")
EOF
rm -rf "$resume_dir"

echo "== fleet soak: churn, SIGKILL, journal-backed recovery =="
# The fleet-level analogue of the journal check above: SIGKILL the
# soak driver mid-stream, resume from the write-ahead event log, and
# demand the recovered service's state hash match an uninterrupted
# oracle run bit for bit.
fleet_dir="$(mktemp -d -t fleet-soak.XXXXXX)"
oracle_hash="$(python -m repro.fleet.soak --log "$fleet_dir/oracle.jsonl" \
    --events 300 --machines 16 --shards 4 --seed 11 2>/dev/null | tail -n 1)"
set +e
python -m repro.fleet.soak --log "$fleet_dir/soak.jsonl" \
    --events 300 --machines 16 --shards 4 --seed 11 --kill-at 150 >/dev/null 2>&1
status=$?
set -e
[ "$status" -eq 137 ] || {
    echo "error: soak expected to die of SIGKILL (137), got $status" >&2
    exit 1
}
resumed_hash="$(python -m repro.fleet.soak --log "$fleet_dir/soak.jsonl" \
    --events 300 --machines 16 --shards 4 --seed 11 --resume 2>/dev/null | tail -n 1)"
[ "$oracle_hash" = "$resumed_hash" ] || {
    echo "error: resumed fleet state hash differs from the oracle run" >&2
    echo "  oracle:  $oracle_hash" >&2
    echo "  resumed: $resumed_hash" >&2
    exit 1
}
echo "ok: SIGKILLed fleet soak resumed bit-identical ($resumed_hash)"
rm -rf "$fleet_dir"

echo "== supervised fleet: worker chaos, failover, verified respawn =="
# The chaos proof at 100k-app scale: shard workers are SIGKILLed,
# wedged, and crashed mid-traffic under the supervision tree. The run
# itself asserts that the service never raises, that queries against
# each quarantined shard are answered (ANALYTIC failover), and that
# every respawned worker's journal replay verifies; here we addition-
# ally demand the final state hash match an uninterrupted supervised
# run bit for bit, and that the stderr accounting shows the respawns
# actually happened.
chaos_dir="$(mktemp -d -t fleet-chaos.XXXXXX)"
clean_hash="$(python -m repro.fleet.soak --log "$chaos_dir/clean.jsonl" \
    --events 100000 --machines 512 --shards 8 --seed 23 \
    --depart-prob 0.0 --no-sync --supervised 2>/dev/null | tail -n 1)"
chaos_hash="$(python -m repro.fleet.soak --log "$chaos_dir/chaos.jsonl" \
    --events 100000 --machines 512 --shards 8 --seed 23 \
    --depart-prob 0.0 --no-sync \
    --chaos sigkill@20000,hang@45000,raise@70000 \
    2>"$chaos_dir/chaos.err" | tail -n 1)"
[ "$clean_hash" = "$chaos_hash" ] || {
    echo "error: chaos-run fleet state hash differs from the clean run" >&2
    echo "  clean: $clean_hash" >&2
    echo "  chaos: $chaos_hash" >&2
    exit 1
}
chaos_stats="$(tail -n 1 "$chaos_dir/chaos.err")"
respawns="$(printf '%s\n' "$chaos_stats" | sed -n 's/.*respawns=\([0-9]*\).*/\1/p')"
[ -n "$respawns" ] && [ "$respawns" -ge 3 ] || {
    echo "error: expected >= 3 worker respawns, got '$respawns' ($chaos_stats)" >&2
    exit 1
}
case "$chaos_stats" in
    *"recovery_mismatches=0"*) ;;
    *) echo "error: recovery mismatches in chaos run ($chaos_stats)" >&2; exit 1 ;;
esac
echo "ok: 100k-app worker-chaos soak bit-identical ($chaos_stats)"
rm -rf "$chaos_dir"

echo "== batched frames: 250k-app worker chaos on frame boundaries =="
# Same chaos proof, bigger fleet, with admitted events coalesced into
# 64-event frames (--batch-size). Injected faults land on frame
# boundaries and killed workers lose whole buffered frames, so this is
# the proof that frame-level journal replay reconstructs exactly the
# admitted prefix: the final hash must still match a clean (also
# batched) supervised run bit for bit.
batch_dir="$(mktemp -d -t fleet-batch.XXXXXX)"
batch_clean_hash="$(python -m repro.fleet.soak --log "$batch_dir/clean.jsonl" \
    --events 250000 --machines 1024 --shards 8 --seed 29 \
    --depart-prob 0.0 --no-sync --supervised --batch-size 64 \
    2>/dev/null | tail -n 1)"
batch_chaos_hash="$(python -m repro.fleet.soak --log "$batch_dir/chaos.jsonl" \
    --events 250000 --machines 1024 --shards 8 --seed 29 \
    --depart-prob 0.0 --no-sync --batch-size 64 \
    --chaos sigkill@50000,hang@120000,raise@190000 \
    2>"$batch_dir/chaos.err" | tail -n 1)"
[ "$batch_clean_hash" = "$batch_chaos_hash" ] || {
    echo "error: batched chaos-run state hash differs from the clean run" >&2
    echo "  clean: $batch_clean_hash" >&2
    echo "  chaos: $batch_chaos_hash" >&2
    exit 1
}
batch_stats="$(tail -n 1 "$batch_dir/chaos.err")"
batch_respawns="$(printf '%s\n' "$batch_stats" | sed -n 's/.*respawns=\([0-9]*\).*/\1/p')"
[ -n "$batch_respawns" ] && [ "$batch_respawns" -ge 3 ] || {
    echo "error: expected >= 3 worker respawns, got '$batch_respawns' ($batch_stats)" >&2
    exit 1
}
case "$batch_stats" in
    *"recovery_mismatches=0"*) ;;
    *) echo "error: recovery mismatches in batched chaos run ($batch_stats)" >&2; exit 1 ;;
esac
# Respawns resume from heartbeat snapshots: together they replay only
# journal tails, never the whole history of every fault.
batch_replayed="$(printf '%s\n' "$batch_stats" | sed -n 's/.*replay_events=\([0-9]*\).*/\1/p')"
[ -n "$batch_replayed" ] && [ "$batch_replayed" -lt 250000 ] || {
    echo "error: respawns replayed '$batch_replayed' events, not < 250000 ($batch_stats)" >&2
    exit 1
}
echo "ok: 250k-app batched worker-chaos soak bit-identical ($batch_stats)"
rm -rf "$batch_dir"

echo "== fast-forward seed determinism =="
# The event-horizon fast-forward path must not introduce any run-to-run
# nondeterminism: two fresh invocations of the same seeded chaos sweep
# must write bit-identical JSON (modulo the wall-clock stamp).
det_dir="$(mktemp -d -t ff-determinism.XXXXXX)"
python -m repro chaos --quick --outdir "$det_dir/a" >/dev/null
python -m repro chaos --quick --outdir "$det_dir/b" >/dev/null
python - "$det_dir" <<'EOF'
import json
import sys
from pathlib import Path

det_dir = Path(sys.argv[1])


def strip_volatile(obj):
    if isinstance(obj, dict):
        return {
            k: strip_volatile(v) for k, v in obj.items() if k != "created_unix"
        }
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


checked = 0
for first in sorted((det_dir / "a").glob("*.json")):
    second = det_dir / "b" / first.name
    assert second.exists(), f"second run missing {first.name}"
    a = strip_volatile(json.loads(first.read_text()))
    b = strip_volatile(json.loads(second.read_text()))
    assert a == b, f"fast-forward run not seed-deterministic: {first.name}"
    checked += 1
assert checked, "no JSON results to compare"
print(f"ok: two chaos invocations bit-identical across {checked} files")
EOF
rm -rf "$det_dir"

echo "== traced chaos run =="
trace="$(mktemp -t chaos-trace.XXXXXX.jsonl)"
trap 'rm -f "$trace"' EXIT
python -m repro chaos --quick --trace "$trace"

echo "== trace validation =="
python - "$trace" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path, encoding="utf-8") as handle:
    lines = [line for line in handle if line.strip()]
assert lines, "trace is empty"
spans = [json.loads(line) for line in lines]  # every line standalone JSON

# A fresh process exercises the whole pipeline: simulation, calibration
# probes, prediction calls and retry attempts must all have left spans.
kinds = {s["kind"] for s in spans}
missing = {"sim", "calibration", "prediction", "retry"} - kinds
assert not missing, f"missing span kinds: {sorted(missing)}"

# Structural sanity: IDs are consistent and parents exist.
ids = {s["span_id"] for s in spans}
assert len(ids) == len(spans), "duplicate span IDs"
dangling = [s["name"] for s in spans if s["parent_id"] not in ids | {None}]
assert not dangling, f"spans with unknown parents: {dangling}"

from repro.obs import Tracer  # round-trip through the typed loader

loaded = Tracer.read_jsonl(path)
assert len(loaded) == len(spans)
print(f"ok: {len(spans)} spans, kinds={sorted(kinds)}")
EOF

echo "== smoke ok =="
