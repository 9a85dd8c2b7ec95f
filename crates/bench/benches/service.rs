//! Query-service macro-benchmarks: throughput scaling across engine-shard
//! counts, and tail latency vs offered load.
//!
//! The `service/qps/shardsN` benches back the scaling gate in
//! `scripts/verify.sh`: every bench pushes the *same* closed burst of
//! [`BURST`] power-law queries through a service and waits for every
//! answer, so per-iteration time is inverse throughput at saturating load
//! — and, the work per iteration being fixed, equal time is equal latency
//! distribution. They run in one **interleaved** group (round-robin
//! sampling) so machine noise lands on every shard count alike and
//! `bench_diff --within --assert-ratio-ge qps/shards1 qps/shards8 2.0`
//! gates the ratio, not the wobbling absolutes. Note the gate needs real
//! cores to pass: on a single-core box every shard count serializes onto
//! the same CPU and the ratio collapses to ~1.
//!
//! The `service_idle/single` bench times one query at a time through an
//! idle 2-shard service whose `max_delay` is 1 ms. Admission flushes at
//! once while a shard worker is free, so the median must stay below
//! `max_delay`; `bench_diff --within --assert-max service_idle/single
//! 1000000` gates that in the bench-diff lane.
//!
//! The `service_p95` group measures the open-loop client at increasing
//! offered load on the widest service; each bench records the client's
//! measured `p95_us`/`qps` as counters in `BENCH_service.json`, tracing
//! the latency-vs-load curve (the saturation knee).

use knnta_bench::{load, BenchConfig, BenchData};
use knnta_core::{Obs, Poi};
use knnta_service::client::{powerlaw_queries, run_open_loop, ClientConfig};
use knnta_service::{Service, ServiceConfig, TelemetryConfig};
use knnta_util::bench::Harness;
use std::hint::black_box;
use std::time::Duration;
use tempora::AggregateSeries;

/// Queries per timed iteration (one closed burst).
const BURST: usize = 256;
/// Admission `max_delay` of the burst services.
const BURST_DELAY: Duration = Duration::from_micros(100);

fn bench_config() -> BenchConfig {
    BenchConfig {
        scale: 0.01,
        ..Default::default()
    }
}

/// A service over the dataset's full snapshot at the given shard count and
/// admission `max_delay`. `telemetry` toggles the always-on sliding-window
/// instrumentation — the `service_obs` group benches both settings to gate
/// its overhead.
fn service_of(data: &BenchData, shards: usize, telemetry: bool, max_delay: Duration) -> Service {
    let pois: Vec<(Poi, AggregateSeries)> = data
        .snapshot
        .iter()
        .map(|(id, pos, series)| (Poi { id: *id, pos: *pos }, series.clone()))
        .collect();
    Service::start(
        ServiceConfig {
            shards,
            workers: 1,
            max_batch: 32,
            max_delay,
            telemetry: TelemetryConfig {
                enabled: telemetry,
                ..TelemetryConfig::default()
            },
            ..ServiceConfig::default()
        },
        data.dataset.grid.clone(),
        data.bounds(),
        pois,
        Obs::disabled(),
    )
}

fn main() {
    let mut h = Harness::new("service");
    let config = bench_config();
    let data = load(&lbsn::gs(), &config);
    let stream = powerlaw_queries(
        &data.dataset,
        &ClientConfig {
            queries: BURST,
            ..ClientConfig::default()
        },
    );

    // Throughput at saturating load, round-robin across shard counts. The
    // services run with the production default: telemetry on.
    let services: Vec<(usize, Service)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&s| (s, service_of(&data, s, true, BURST_DELAY)))
        .collect();
    {
        let mut g = h.interleaved_group("service");
        g.sample_size(15);
        for (shards, service) in &services {
            let stream = &stream;
            g.bench(format!("qps/shards{shards}"), move || {
                let tickets: Vec<_> = stream.iter().map(|q| service.submit(*q)).collect();
                for t in tickets {
                    black_box(t.wait());
                }
            });
        }
        g.finish();
    }

    // Telemetry overhead: the same closed burst through two otherwise
    // identical 4-shard services, windows + tail sampler on vs off.
    // Interleaved so `bench_diff --within --assert-le
    // service_obs/qps/telemetry_on service_obs/qps/telemetry_off`
    // gates the cost of the always-on instrumentation.
    {
        let on = service_of(&data, 4, true, BURST_DELAY);
        let off = service_of(&data, 4, false, BURST_DELAY);
        let mut g = h.interleaved_group("service_obs");
        g.sample_size(15);
        for (label, service) in [("telemetry_off", &off), ("telemetry_on", &on)] {
            let stream = &stream;
            g.bench(format!("qps/{label}"), move || {
                let tickets: Vec<_> = stream.iter().map(|q| service.submit(*q)).collect();
                for t in tickets {
                    black_box(t.wait());
                }
            });
        }
        g.finish();
    }

    // Idle path: one query per iteration, answered before the next is
    // submitted, so every flush finds the shards idle.
    {
        let idle = service_of(&data, 2, true, Duration::from_millis(1));
        let mut queries = stream.iter().cycle();
        let mut g = h.interleaved_group("service_idle");
        g.bench("single", move || {
            let q = queries.next().expect("cycle over a non-empty stream");
            black_box(idle.submit(*q).wait());
        });
        g.finish();
    }

    // Tail latency vs offered load on the widest service. One calibration
    // run per load level records the client-side p95 and achieved qps as
    // counters; the timed iterations then repeat the same open-loop run.
    let wide = &services.last().expect("services non-empty").1;
    let mut g = h.group("service_p95");
    g.sample_size(10);
    for rate in [2_000.0f64, 8_000.0, 32_000.0] {
        let report = run_open_loop(wide, &stream, rate);
        g.bench(format!("p95_vs_load/rate{}", rate as u64), |b| {
            b.counters(vec![
                ("p95_us".to_string(), report.p95_us),
                ("qps".to_string(), report.qps as u64),
                // How many slow-query traces the tail sampler has retained
                // so far — evidence the always-on capture really fires
                // under load, alongside the latency curve it explains.
                ("tail_traces_kept".to_string(), wide.telemetry().tail_kept_ever()),
            ]);
            b.iter(|| black_box(run_open_loop(wide, &stream, rate).p95_us))
        });
    }
    g.finish();

    h.finish().expect("write BENCH_service.json");
}
