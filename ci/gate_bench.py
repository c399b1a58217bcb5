#!/usr/bin/env python3
"""Bench and metrics gates for CI, one subcommand per recorded artifact.

Belt and braces next to each bench's own exit code: re-checks what actually
lands in the published artifacts.

  metrics PATH          Prometheus text from serve_stress_test: every line
                        parses, the core serving series are present, and the
                        tick histogram count equals the tick counter.
  serve-throughput PATH BENCH_serve_throughput.json: sharded vs scalar per ML
                        kind, float32 vs float64 sharded lanes, telemetry
                        overhead, and the kernel-layer A/B.
  net-ingest PATH       BENCH_net_ingest.json: every stage present, zero
                        replay mismatches, socket path above the floor.

Every bound lives in BOUNDS below. Exits 1 on any failure.
"""
import argparse
import json
import re
import sys

BOUNDS = {
    # serve-throughput: sharded/scalar cycles/s at the top session count,
    # per ML kind (10% jitter allowance).
    "sharded_vs_scalar_top_min": 0.9,
    # serve-throughput: best sharded/scalar ratio over ML kinds and counts.
    "best_ml_speedup_min": 2.0,
    # serve-throughput: float32/float64 sharded cycles/s at the top count.
    "f32_vs_f64_top_min": 0.9,
    # serve-throughput: telemetry on vs off, full-tick overhead (%).
    "telemetry_overhead_pct_max": 2.0,
    # serve-throughput: f32 SIMD vs pre-kernel f64 serving (SIMD builds).
    "kernels_speedup_min": 4.0,
    # net-ingest: socket replay path, cycles/s.
    "net_socket_floor_cps": 10000,
}

ML_KINDS = ("dt", "mlp", "lstm")
F32_KINDS = ("mlp", "lstm")
NET_STAGES = ("record-live", "replay-direct", "replay-socket")
NET_REPLAY_STAGES = ("replay-direct", "replay-socket")
METRICS_REQUIRED = (
    "serve_ticks_total", "serve_cycles_total",
    "serve_sessions_opened_total", "serve_reloads_total",
    "serve_tick_latency_us_count", "serve_tick_latency_us_sum",
)


def gate_metrics(path):
    text = open(path).read()
    line_re = re.compile(
        r'^(?:# (?:HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*.*'
        r'|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})? -?[0-9eE.+-]+'
        r'|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})? \+Inf)$')
    samples = {}
    for n, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if not line_re.match(line):
            sys.exit(f'line {n} is not valid Prometheus text: {line!r}')
        if not line.startswith('#'):
            name = re.split(r'[{ ]', line, maxsplit=1)[0]
            samples[name] = float(line.rsplit(' ', 1)[1])
    missing = [name for name in METRICS_REQUIRED if name not in samples]
    if missing:
        sys.exit(f'scrape is missing core series: {missing}')
    if samples['serve_tick_latency_us_count'] != samples['serve_ticks_total']:
        sys.exit('tick histogram count disagrees with the tick counter')
    print(f'{len(samples)} series parsed; core serving series present')
    return []


def gate_serve_throughput(path):
    data = json.load(open(path))
    rate = {}
    for stage in data['stages']:
        parts = stage['name'].split('/')
        if len(parts) != 3:
            continue
        kind, backend, sessions = parts[0], parts[1], int(parts[2])
        rate.setdefault(kind, {}).setdefault(backend, {})[sessions] = \
            stage['runs_per_s']
    failures = []
    best = 0.0
    for kind in ML_KINDS:
        counts = sorted(rate.get(kind, {}).get('scalar', {}))
        if not counts:
            failures.append(f'{kind}: missing from bench output')
            continue
        ratios = {n: rate[kind]['sharded'][n] / rate[kind]['scalar'][n]
                  for n in counts}
        best = max(best, max(ratios.values()))
        top = counts[-1]
        print(f'{kind}: ' + ' '.join(
            f'{n}={ratios[n]:.2f}x' for n in counts))
        if ratios[top] < BOUNDS['sharded_vs_scalar_top_min']:
            failures.append(
                f'{kind}: sharded path regressed below scalar at '
                f'{top} sessions ({ratios[top]:.2f}x)')
    if best < BOUNDS['best_ml_speedup_min']:
        failures.append(f'best ML sharded speedup {best:.2f}x < '
                        f"{BOUNDS['best_ml_speedup_min']:g}x")
    # float32 serving lanes: never slower than the f64 sharded path at the
    # top session count (the whole point of the mode).
    for kind in F32_KINDS:
        f32 = rate.get(f'{kind}-f32', {}).get('sharded', {})
        f64 = rate.get(kind, {}).get('sharded', {})
        common = sorted(set(f32) & set(f64))
        if not common:
            failures.append(f'{kind}-f32: missing from bench output')
            continue
        top = common[-1]
        ratio = f32[top] / f64[top]
        print(f'{kind}-f32 vs f64 sharded at {top}: {ratio:.2f}x')
        if ratio < BOUNDS['f32_vs_f64_top_min']:
            failures.append(
                f'{kind}-f32: slower than f64 sharded at {top} '
                f'sessions ({ratio:.2f}x)')
    # Telemetry budget: the A/B stage records the full-tick overhead of
    # histograms + spans + sampled drift scoring.
    tel = next((s for s in data['stages']
                if s['name'].startswith('telemetry_overhead/')), None)
    if tel is None:
        failures.append('telemetry_overhead: missing from bench output')
    else:
        print(f"telemetry_overhead: {tel['overhead_pct']:.2f}%")
        if tel['overhead_pct'] >= BOUNDS['telemetry_overhead_pct_max']:
            failures.append(
                f"telemetry overhead {tel['overhead_pct']:.2f}% "
                f">= {BOUNDS['telemetry_overhead_pct_max']:g}% budget")
    # Kernel-layer A/B: f32+SIMD vs pre-kernel f64 serving. Only enforced
    # when a SIMD backend was actually compiled+selected (simd=1); the
    # scalar-only leg records the stage but passes.
    ab = next((s for s in data['stages']
               if s['name'] == 'kernels_ab/lstm/64'), None)
    if ab is None:
        failures.append('kernels_ab/lstm/64: missing from bench output')
    elif ab['simd']:
        print(f"kernels_ab: {ab['speedup']:.2f}x "
              f"(f64/scalar {ab['cycles_per_sec_f64_scalar_kernels']:.0f}"
              f" -> f32/simd {ab['cycles_per_sec_f32_simd']:.0f})")
        if ab['speedup'] < BOUNDS['kernels_speedup_min']:
            failures.append(
                f"kernels_ab: f32 SIMD speedup {ab['speedup']:.2f}x "
                f"< {BOUNDS['kernels_speedup_min']:g}x over pre-kernel f64 "
                f"serving")
    else:
        print('kernels_ab: scalar-only build, speedup gate skipped')
    return failures


def gate_net_ingest(path):
    data = json.load(open(path))
    stages = {s['name']: s for s in data['stages']}
    floor = BOUNDS['net_socket_floor_cps']
    failures = []
    for name in NET_STAGES:
        if name not in stages:
            failures.append(f'missing stage {name}')
    for name in NET_REPLAY_STAGES:
        if stages.get(name, {}).get('mismatches', 1) != 0:
            failures.append(f'{name}: decision mismatches recorded')
    socket = stages.get('replay-socket', {})
    if socket.get('runs_per_s', 0) < floor:
        failures.append(
            f"socket path {socket.get('runs_per_s')} cycles/s < "
            f"{floor / 1000:g}k floor")
    for name, stage in stages.items():
        print(f"{name}: {stage['runs_per_s']:.0f} cycles/s")
    return failures


GATES = {
    'metrics': (gate_metrics, 'serve_stress_metrics.prom'),
    'serve-throughput': (gate_serve_throughput,
                         'BENCH_serve_throughput.json'),
    'net-ingest': (gate_net_ingest, 'BENCH_net_ingest.json'),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('gate', choices=sorted(GATES))
    parser.add_argument('path', nargs='?',
                        help='artifact to check (default: the name the '
                             'bench or test writes in its working directory)')
    args = parser.parse_args()
    check, default_path = GATES[args.gate]
    failures = check(args.path or default_path)
    for failure in failures:
        print('FAIL:', failure)
    sys.exit(1 if failures else 0)


if __name__ == '__main__':
    main()
