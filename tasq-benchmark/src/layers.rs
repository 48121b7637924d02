//! The traced run: per-layer metrics.
//!
//! Three sources, all outside the program: (a) a sample of the workload's
//! jobs replayed through each layer's public function inside
//! benchmark-side spans, (b) the program's own public counters read
//! around phases of one traffic shape, (c) the capacity phase repeated
//! with request spans on, which prices the tracing itself. End-to-end
//! numbers never come from this run.

use crate::load::{Tally, Until};
use crate::report::{nproc, ref_kops, Metric, Outcome};
use crate::serving::{self, Serving, Stage, CALIBRATION, OPEN_LOOP_RATE};
use crate::stats::{poisson_schedule, quantile, SeededRng};
use crate::sut::{self, Family, Job, ModelStore, Pool, ServedVia, SutError};
use crate::trace::{Recorder, SpanId};
use crate::{run, spec, training};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Jobs replayed through each layer (fewer with `--quick`).
const REPLAY_JOBS: usize = 4096;
/// Jobs per replay span: long enough that the two clock reads around a
/// chunk cost under 1 % of it even for a 20 ns layer.
const CHUNK: usize = 64;
/// Offered rates of the latency-vs-load sweep, requests per second.
const SWEEP_RATES: [(f64, &str); 4] = [
    (1000.0, "serve.sweep.p50_us.r1000"),
    (5000.0, "serve.sweep.p50_us.r5000"),
    (20000.0, "serve.sweep.p50_us.r20000"),
    (40000.0, "serve.sweep.p50_us.r40000"),
];
/// Bursts per side wherever the traced run compares two capacities.
fn capacity_rounds(quick: bool) -> usize {
    if quick {
        2
    } else {
        8
    }
}

/// Spans written to the Chrome trace (all are kept in memory and counted;
/// the file is capped so it stays loadable).
const TRACE_FILE_SPANS: usize = 20_000;

/// Per-layer values by name; what a workload does not produce reads 0.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec::PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not registered"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn metrics(&self) -> Vec<Metric> {
        spec::PER_LAYER
            .iter()
            .map(|&(name, _, _)| Metric::new(name, self.get(name)))
            .collect()
    }
}

/// Run `layer` over `items` in chunks, one span per chunk under `parent`;
/// the median over chunks of the time per item, in nanoseconds.
fn per_item_ns<T>(
    recorder: &mut Recorder,
    name: &'static str,
    parent: SpanId,
    items: &[T],
    mut layer: impl FnMut(&T),
) -> f64 {
    let mut per_item = Vec::with_capacity(items.len() / CHUNK + 1);
    for (index, chunk) in items.chunks(CHUNK).enumerate() {
        let span = recorder.open(name, parent, index as u64);
        for item in chunk {
            layer(item);
        }
        per_item.push(recorder.close(span) as f64 / chunk.len() as f64);
    }
    quantile(&per_item, 0.5)
}

/// Median of nanosecond samples, in nanoseconds.
fn median_ns(ns: &[u64]) -> f64 {
    quantile(&ns.iter().map(|&v| v as f64).collect::<Vec<_>>(), 0.5)
}

/// Median of nanosecond samples, in microseconds.
fn median_us(ns: &[u64]) -> f64 {
    median_ns(ns) / 1e3
}

/// (a) Replay `sample` through every layer that is a pure function of a
/// job, a payload or a key.
fn replay(
    sample: &[Job],
    store: &ModelStore,
    seed: u64,
    recorder: &mut Recorder,
    layers: &mut Layers,
) -> Result<(), SutError> {
    let root = recorder.open("replay", 0, 0);

    // core::codec — only the wire workloads serialise on the request path.
    let mut payloads = Vec::with_capacity(sample.len());
    let encode = per_item_ns(recorder, "core.codec.encode", root, sample, |job| {
        payloads.push(sut::encode_job(job).unwrap_or_default());
    });
    layers.set("core.codec.encode_ns", encode);
    layers.set(
        "core.codec.job_bytes",
        payloads.iter().map(Vec::len).sum::<usize>() as f64 / payloads.len().max(1) as f64,
    );
    let decode = per_item_ns(recorder, "core.codec.decode", root, &payloads, |payload| {
        black_box(sut::decode_job(payload).is_ok());
    });
    layers.set("core.codec.decode_ns", decode);

    // core::featurize and one ScoringService::score per family.
    let featurize = per_item_ns(recorder, "core.featurize.job", root, sample, |job| {
        black_box(sut::featurize(job));
    });
    layers.set("core.featurize.job_ns", featurize);
    let families = [
        (Family::Nn, "core.score.nn", "core.score.nn_ns"),
        (Family::XgbSs, "core.score.xgb_ss", "core.score.xgb_ss_ns"),
        (Family::XgbPl, "core.score.xgb_pl", "core.score.xgb_pl_ns"),
        (
            Family::Analytic,
            "core.score.analytic",
            "core.score.analytic_ns",
        ),
    ];
    let mut answers = Vec::new();
    for (family, span, metric) in families {
        let service = sut::scoring_service(store, family)?;
        let keep = family == Family::Nn;
        let cost = per_item_ns(recorder, span, root, sample, |job| {
            let answer = service.score(job);
            if keep {
                answers.push(answer);
            } else {
                black_box(answer.optimal_tokens);
            }
        });
        layers.set(metric, cost);
    }

    // serve::signature and serve::cache. Half the sample is inserted into
    // an empty default cache (no shard overflows at that load), so probing
    // it hits and probing the other half misses; inserting into a cache
    // pre-filled to capacity evicts on every insert.
    let mut keys = Vec::with_capacity(sample.len());
    let signature = per_item_ns(recorder, "serve.signature", root, sample, |job| {
        keys.push(sut::cache_key(job));
    });
    layers.set("serve.signature.ns", signature);
    let cache = sut::new_cache();
    let half = keys.len().min(sut::default_cache_capacity()) / 2;
    let (resident, absent) = keys.split_at(half);
    for (key, answer) in resident.iter().zip(&answers) {
        cache.insert(*key, answer.clone());
    }
    let hit = per_item_ns(recorder, "serve.cache.hit", root, resident, |key| {
        black_box(cache.get(*key).is_some());
    });
    let miss = per_item_ns(recorder, "serve.cache.miss", root, absent, |key| {
        black_box(cache.get(*key).is_some());
    });
    layers.set("serve.cache.hit_ns", hit);
    layers.set("serve.cache.miss_ns", miss);
    let full = sut::new_cache();
    let mut filler = SeededRng::new(seed, 7);
    for _ in 0..4 * sut::default_cache_capacity() {
        full.insert(filler.next_u64(), answers[0].clone());
    }
    let pairs: Vec<(u64, &sut::ScoreResponse)> = keys.iter().copied().zip(&answers).collect();
    let insert = per_item_ns(
        recorder,
        "serve.cache.insert_evict",
        root,
        &pairs,
        |(key, answer)| {
            full.insert(*key, (*answer).clone());
        },
    );
    layers.set("serve.cache.insert_evict_ns", insert);

    // net::frame and net::http, server side: locate the request, write
    // the response.
    let responses: Vec<Vec<u8>> = answers
        .iter()
        .map(|a| sut::encode_response(a).unwrap_or_default())
        .collect();
    let framed: Vec<Vec<u8>> = payloads
        .iter()
        .map(|payload| {
            let mut wire = Vec::with_capacity(payload.len() + 4);
            sut::write_request_frame(&mut wire, payload);
            wire
        })
        .collect();
    let http: Vec<Vec<u8>> = payloads
        .iter()
        .map(|payload| sut::http_score_request(payload))
        .collect();
    let mut out = Vec::with_capacity(1 << 16);
    let parse = per_item_ns(recorder, "net.frame.parse", root, &framed, |wire| {
        black_box(sut::parse_request_frame(wire));
    });
    layers.set("net.frame.parse_ns", parse);
    let write = per_item_ns(recorder, "net.frame.write", root, &responses, |payload| {
        out.clear();
        sut::write_ok_response_frame(&mut out, payload);
    });
    layers.set("net.frame.write_ns", write);
    let parse = per_item_ns(recorder, "net.http.parse", root, &http, |wire| {
        black_box(sut::parse_http_request(wire));
    });
    layers.set("net.http.parse_ns", parse);
    let write = per_item_ns(recorder, "net.http.write", root, &responses, |payload| {
        out.clear();
        sut::write_http_response(&mut out, payload);
    });
    layers.set("net.http.write_ns", write);

    // obs: what each request pays several times over.
    let probe = sut::ObsProbe::new();
    let ticks: Vec<u64> = (0..(16 * sample.len()) as u64).collect();
    let span_off = per_item_ns(recorder, "obs.span_off", root, &ticks, |&id| {
        probe.span_off(id)
    });
    let record = per_item_ns(recorder, "obs.histogram_record", root, &ticks, |&v| {
        probe.record(v)
    });
    let inc = per_item_ns(recorder, "obs.counter_inc", root, &ticks, |_| probe.inc());
    layers.set("obs.span_off_ns", span_off);
    layers.set("obs.histogram_record_ns", record);
    layers.set("obs.counter_inc_ns", inc);

    // scope-sim, arepas and the small tasq-ml pieces of the offline path.
    let batches: Vec<u64> = (0..8).collect();
    let generate = per_item_ns(recorder, "scope_sim.generate", root, &batches, |&k| {
        black_box(sut::generate_jobs(CHUNK, seed.wrapping_add(100 + k)).len());
    });
    layers.set(
        "scope_sim.generate_us_per_job",
        generate / CHUNK as f64 / 1e3,
    );
    let few = &sample[..sample.len().min(4 * CHUNK)];
    let mut skylines = Vec::with_capacity(few.len());
    let exec = per_item_ns(recorder, "scope_sim.exec", root, few, |job| {
        skylines.push(sut::execute(job).unwrap_or_default());
    });
    layers.set("scope_sim.exec_us_per_run", exec / 1e3);
    let simulate = per_item_ns(recorder, "arepas.simulate", root, &skylines, |skyline| {
        black_box(sut::arepas_simulate(skyline));
    });
    layers.set("arepas.simulate_us_per_job", simulate / 1e3);
    let xgb = sut::stored_xgb(store)?;
    let rows = sut::xgb_rows(&sut::build_dataset(few, &Pool::sequential(), &mut 0));
    let predict = per_item_ns(recorder, "ml.gbdt.predict", root, &rows, |row| {
        black_box(sut::xgb_predict(&xgb, std::slice::from_ref(row)));
    });
    layers.set("ml.gbdt.predict_ns_per_row", predict);
    let xs: Vec<f64> = (1..=9).map(|i| 40.0 + 10.0 * f64::from(i)).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 4000.0 / x + (x * 0.37).sin()).collect();
    let spline = per_item_ns(recorder, "ml.spline.fit", root, few, |_| {
        black_box(sut::fit_spline(&xgb, &xs, &ys));
    });
    layers.set("ml.spline.fit_us", spline / 1e3);

    recorder.close(root);
    Ok(())
}

/// The offline pipeline phase by phase, on one thread (`t1`) and on all
/// hardware threads (`tn`): medians over `reps` passes each, alternating.
fn offline_probe(
    seed: u64,
    reps: usize,
    recorder: &mut Recorder,
    layers: &mut Layers,
) -> Result<(), SutError> {
    let root = recorder.open("offline_probe", 0, 0);
    let pools = [Pool::sequential(), Pool::new(nproc())];
    let mut phase_ms: [[Vec<f64>; 8]; 2] = Default::default();
    let mut wall_ms: [Vec<f64>; 2] = Default::default();
    let mut sum_ratio = Vec::new();
    let mut apes: [Vec<f64>; 3] = Default::default();
    let mut sub_seeds = SeededRng::new(seed, 5);
    for _ in 0..reps {
        let sub_seed = sub_seeds.next_u64();
        for (which, pool) in pools.iter().enumerate() {
            let span = recorder.open(
                if which == 0 {
                    "train.pass.t1"
                } else {
                    "train.pass.tn"
                },
                root,
                sub_seed,
            );
            let pass = training::pass(sub_seed, pool, recorder, span)?;
            recorder.close(span);
            for (samples, phase) in phase_ms[which].iter_mut().zip(pass.phase) {
                samples.push(phase.as_secs_f64() * 1e3);
            }
            wall_ms[which].push(pass.wall.as_secs_f64() * 1e3);
            sum_ratio
                .push(pass.phase.iter().sum::<Duration>().as_secs_f64() / pass.wall.as_secs_f64());
            if which == 0 {
                for (samples, accuracy) in apes.iter_mut().zip(pass.accuracy) {
                    samples.push(accuracy.median_ape_pct);
                }
            }
        }
    }
    recorder.close(root);
    let median = |which: usize, phase: &str| {
        let index = training::PHASES
            .iter()
            .position(|p| *p == phase)
            .unwrap_or(0);
        quantile(&phase_ms[which][index], 0.5)
    };
    for (phase, t1, tn, ratio) in [
        (
            "scope_sim.flight",
            "scope_sim.flight_ms.t1",
            "scope_sim.flight_ms.tn",
            "par.ratio.flight",
        ),
        (
            "core.dataset.build",
            "core.dataset.build_ms.t1",
            "core.dataset.build_ms.tn",
            "par.ratio.dataset",
        ),
        (
            "ml.gbdt.fit",
            "ml.gbdt.fit_ms.t1",
            "ml.gbdt.fit_ms.tn",
            "par.ratio.gbdt",
        ),
        (
            "ml.kmeans.fit",
            "ml.kmeans.fit_ms.t1",
            "ml.kmeans.fit_ms.tn",
            "par.ratio.kmeans",
        ),
    ] {
        layers.set(t1, median(0, phase));
        layers.set(tn, median(1, phase));
        layers.set(ratio, median(0, phase) / median(1, phase).max(1e-9));
    }
    layers.set("ml.nn.fit_ms", median(0, "ml.nn.fit"));
    layers.set("ml.gnn.fit_ms", median(0, "ml.gnn.fit"));
    layers.set("core.eval.ms", median(0, "core.eval"));
    layers.set("train.pass_ms.t1", quantile(&wall_ms[0], 0.5));
    layers.set("train.pass_ms.tn", quantile(&wall_ms[1], 0.5));
    layers.set("train.phase_sum_ratio", quantile(&sum_ratio, 0.5));
    layers.set("ml.nn.median_ape_pct", quantile(&apes[0], 0.5));
    layers.set("ml.xgb.median_ape_pct", quantile(&apes[1], 0.5));
    layers.set("ml.gnn.median_ape_pct", quantile(&apes[2], 0.5));
    Ok(())
}

/// p50 of one of the program's always-on segment histograms over the
/// samples recorded between two reads of it.
fn histogram_p50_since(name: &str, before: &[(u64, u64)]) -> f64 {
    let after = sut::global_histogram(name);
    let added: Vec<(u64, u64)> = after
        .iter()
        .enumerate()
        .map(|(i, &(le, count))| (le, count - before.get(i).map_or(0, |b| b.1)))
        .collect();
    let total: u64 = added.iter().map(|a| a.1).sum();
    let mut seen = 0;
    for (le, count) in added {
        seen += count;
        if count > 0 && 2 * seen >= total {
            return le as f64;
        }
    }
    0.0
}

const SEGMENT_HISTOGRAMS: [(&str, &str); 4] = [
    ("segment_queue_wait_us", "serve.seg.queue_wait_us_p50"),
    ("segment_batch_wait_us", "serve.seg.batch_wait_us_p50"),
    ("segment_score_primary_us", "serve.seg.score_us_p50"),
    ("segment_flush_us", "serve.seg.flush_us_p50"),
];

/// The program's always-on serving counters in its global registry, in
/// the order submitted, cache hits, inline (event-loop) hits, shed,
/// rejected.
const SERVE_COUNTERS: [&str; 5] = [
    "serve_submitted_total",
    "serve_cache_hits_total",
    "serve_fastpath_hits_total",
    "serve_shed_total",
    "serve_rejected_total",
];

fn read_serve_counters() -> [u64; 5] {
    SERVE_COUNTERS.map(sut::global_counter)
}

/// What a traced run accumulates.
struct Traced {
    recorder: Recorder,
    layers: Layers,
    tally: Tally,
    /// Calibration-kernel readings taken between phases.
    kops: Vec<f64>,
    /// Requests shed or refused in sweep windows above the end-to-end
    /// rate: the program's answer to overload, not failed operations.
    overload_shed: u64,
}

impl Traced {
    fn new() -> Self {
        Self {
            recorder: Recorder::new(true),
            layers: Layers::default(),
            tally: Tally::default(),
            kops: Vec::new(),
            overload_shed: 0,
        }
    }

    /// Read the calibration kernel; `machine.ref_kops` is the median of
    /// the readings of a run.
    fn calibrate(&mut self) {
        self.kops.push(ref_kops(CALIBRATION));
        self.layers
            .set("machine.ref_kops", quantile(&self.kops, 0.5));
    }

    /// (b) and (c) on a live serving stack.
    fn live_serving(
        &mut self,
        workload: &Serving,
        stage: &mut Stage,
        seed: u64,
        budget: Duration,
        quick: bool,
    ) -> Result<(), SutError> {
        self.calibrate();
        let Self {
            recorder,
            layers,
            tally,
            kops,
            overload_shed,
        } = self;
        let mut off = Recorder::new(false);
        let scale = if quick { 0.05 } else { 1.0 };
        let counters_before = read_serve_counters();

        // One outstanding request at a time, straight after warm-up and
        // before any burst, so the segment histograms describe one
        // traffic shape.
        let before: Vec<_> = SEGMENT_HISTOGRAMS
            .iter()
            .map(|(name, _)| sut::global_histogram(name))
            .collect();
        let mut hops = Vec::new();
        let pings = (1500.0 * scale) as u64 + 20;
        let span = recorder.open("pingpong", 0, 0);
        stage.driver.closed_loop(
            &mut stage.mix,
            1,
            Until::Requests(pings),
            tally,
            &mut off,
            Some(&mut hops),
        )?;
        recorder.close(span);
        layers.set("serve.hop.pingpong_us_p50", median_us(&hops));
        for ((name, metric), before) in SEGMENT_HISTOGRAMS.iter().zip(&before) {
            layers.set(metric, histogram_p50_since(name, before));
        }

        // The latency-vs-offered-load sweep; tail and lateness at the
        // end-to-end rate.
        let mut arrivals = SeededRng::new(seed, 6);
        let window_ns = (budget.as_nanos() as f64 * scale / 10.0) as u64;
        for (rate, metric) in SWEEP_RATES {
            kops.push(ref_kops(CALIBRATION));
            let span = recorder.open("sweep", 0, rate as u64);
            let schedule = poisson_schedule(&mut arrivals, rate, window_ns);
            let mut offered = Tally::default();
            let window = stage
                .driver
                .open_loop(&mut stage.mix, &schedule, &mut offered)?;
            recorder.close(span);
            if rate > OPEN_LOOP_RATE {
                // Past the end-to-end rate the sweep looks for the knee,
                // and shedding there is the program working as designed.
                *overload_shed += std::mem::take(&mut offered.failed);
            }
            tally.merge(offered);
            layers.set(metric, median_us(&window.latency_ns));
            if rate == OPEN_LOOP_RATE {
                let latency = window.latency_us();
                let late = window.late_us();
                let tail = if workload.wire {
                    "net.latency_p99_us"
                } else {
                    "serve.latency_p99_us"
                };
                layers.set(tail, quantile(&latency, 0.99));
                layers.set("gen.late_us_p99", quantile(&late, 0.99));
            }
        }

        // Capacity with request spans off and on, alternating.
        let syscalls_before = sut::syscall_counters().total();
        let bytes_before = (
            sut::global_counter("net_bytes_read_total"),
            sut::global_counter("net_bytes_written_total"),
        );
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut burst_requests = 0;
        for _ in 0..capacity_rounds(quick) {
            kops.push(ref_kops(CALIBRATION));
            let burst = stage.burst(tally, &mut off)?;
            plain.push(burst.rate());
            burst_requests += burst.ok;
            let span = recorder.open("capacity_traced", 0, 0);
            let burst = stage.burst(tally, recorder)?;
            recorder.close(span);
            traced.push(burst.rate());
            burst_requests += burst.ok;
        }
        let (plain, traced) = (quantile(&plain, 0.8), quantile(&traced, 0.8));
        layers.set("bench.capacity_untraced_per_s", plain);
        layers.set("bench.capacity_traced_per_s", traced);
        layers.set("bench.trace_overhead_share", 1.0 - traced / plain.max(1e-9));
        if workload.wire {
            let requests = burst_requests.max(1) as f64;
            let per_request = |now: u64, before: u64| (now - before) as f64 / requests;
            layers.set(
                "net.syscalls_per_req",
                per_request(sut::syscall_counters().total(), syscalls_before),
            );
            layers.set(
                "net.bytes_in_per_req",
                per_request(sut::global_counter("net_bytes_read_total"), bytes_before.0),
            );
            layers.set(
                "net.bytes_out_per_req",
                per_request(
                    sut::global_counter("net_bytes_written_total"),
                    bytes_before.1,
                ),
            );
        }

        // Shares of the workload's own traffic: read before the probes
        // below, which resubmit on purpose.
        let now = read_serve_counters();
        let since = |index: usize| (now[index] - counters_before[index]) as f64;
        let submitted = since(0).max(1.0);
        layers.set("serve.cache.hit_share", since(1) / submitted);
        layers.set("net.fastpath_share", since(2) / submitted);
        layers.set("serve.shed_share", since(3) / submitted);
        layers.set("serve.rejected_share", since(4) / (submitted + since(4)));

        // The submit call alone, by the path it took. Every other request
        // is followed by its exact repeat: a hit once the first is cached.
        if let Some(server) = stage.driver.server() {
            let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
            let mut probe = |job: Job| {
                tally.attempted += 1;
                let (elapsed, submitted) = timed(|| server.submit(job));
                match submitted.map(|ticket| ticket.outcome()) {
                    Ok(Ok(served)) if served.via == ServedVia::Cache => hit_ns.push(elapsed),
                    Ok(Ok(served)) if served.via == ServedVia::Model => miss_ns.push(elapsed),
                    _ => tally.failed += 1,
                }
            };
            for round in 0..2 * pings {
                let job = stage.mix.next_job();
                let repeat = (round % 2 == 1).then(|| stage.mix.resubmit(&job));
                probe(job);
                repeat.into_iter().for_each(&mut probe);
            }
            layers.set("serve.submit_hit_ns", median_ns(&hit_ns));
            layers.set("serve.submit_miss_ns", median_ns(&miss_ns));
        }

        // Round trips over the wire with the program's own blocking
        // clients, one outstanding, a job the cache holds.
        if let Some(address) = &stage.address {
            let job = stage.mix.next_job();
            let mut binary = sut::BinaryClient::connect(address)?;
            let mut http = sut::HttpClient::connect(address)?;
            let (mut binary_ns, mut http_ns) = (Vec::new(), Vec::new());
            for _ in 0..pings / 4 {
                for (ns, outcome) in [
                    (&mut binary_ns, timed(|| binary.score(&job))),
                    (&mut http_ns, timed(|| http.score(&job))),
                ] {
                    tally.attempted += 1;
                    match outcome {
                        (elapsed, Ok(sut::ScoreOutcome::Ok(_))) => ns.push(elapsed),
                        _ => tally.failed += 1,
                    }
                }
            }
            layers.set("net.binary.rtt_us_p50", median_us(&binary_ns));
            layers.set("net.http.rtt_us_p50", median_us(&http_ns));
        }
        Ok(())
    }
}

fn timed<T>(call: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let value = call();
    (start.elapsed().as_nanos() as u64, value)
}

/// Per-request counts that only the server's final statistics carry
/// (cumulative from its start, warm-up and probes included).
fn set_final_counters(stats: &sut::ServerStatsSnapshot, layers: &mut Layers) {
    layers.set(
        "serve.cache.evictions_per_req",
        stats.cache.evictions as f64 / stats.submitted.max(1) as f64,
    );
    layers.set("serve.batch.mean_size", stats.mean_batch_size());
    layers.set("serve.queue.peak_depth", stats.peak_queue_depth as f64);
}

/// The generated layer budget: what the replay says each step of a
/// request costs, beside what the program's segment histograms say,
/// beside the end-to-end figure they should add up to.
fn budget_table(layers: &Layers) -> Vec<String> {
    let us = |name: &str| layers.get(name) / 1e3;
    let rows = [
        (
            "admission: signature + cache probe",
            us("serve.signature.ns") + us("serve.cache.miss_ns"),
            None,
        ),
        ("queue wait", 0.0, Some("serve.seg.queue_wait_us_p50")),
        ("batch wait", 0.0, Some("serve.seg.batch_wait_us_p50")),
        (
            "score: featurize + NN inference",
            us("core.score.nn_ns"),
            Some("serve.seg.score_us_p50"),
        ),
        (
            "flush: cache insert-with-evict + reply",
            us("serve.cache.insert_evict_ns"),
            Some("serve.seg.flush_us_p50"),
        ),
    ];
    let mut lines = vec![
        "layer budget of one request, us (replayed layer cost | program's segment histogram p50):"
            .to_string(),
    ];
    let (mut replayed, mut segments) = (0.0, 0.0);
    for (label, cost, histogram) in rows {
        let segment = histogram.map(|name| layers.get(name));
        replayed += cost;
        segments += segment.unwrap_or(0.0);
        lines.push(format!(
            "  {label:<42} {:>9} | {:>9}",
            if cost > 0.0 {
                format!("{cost:.2}")
            } else {
                "-".to_string()
            },
            segment.map_or("-".to_string(), |s| format!("{s:.1}")),
        ));
    }
    let waits =
        layers.get("serve.seg.queue_wait_us_p50") + layers.get("serve.seg.batch_wait_us_p50");
    lines.push(format!("  {:<42} {replayed:>9.2} | {segments:>9.1}", "sum"));
    lines.push(format!(
        "  end to end: hop at 1 outstanding {:.1} | open loop p50 at {OPEN_LOOP_RATE} req/s {:.1}; \
         queue + batch wait are {:.0} % of the hop; residue serve.overhead_us {:.1}",
        layers.get("serve.hop.pingpong_us_p50"),
        layers.get("serve.sweep.p50_us.r5000"),
        100.0 * waits / layers.get("serve.hop.pingpong_us_p50").max(1e-9),
        layers.get("serve.overhead_us"),
    ));
    lines
}

/// Write the Chrome trace, check it, and finish the outcome.
fn conclude(
    workload: &'static str,
    run: Traced,
    correct: bool,
    mut notes: Vec<String>,
) -> Result<Outcome, SutError> {
    let Traced {
        recorder,
        mut layers,
        tally,
        overload_shed,
        ..
    } = run;
    if overload_shed > 0 {
        notes.push(format!(
            "sweep: {overload_shed} requests shed or refused in windows above {OPEN_LOOP_RATE} req/s (see \
             serve.shed_share; not counted as failed)"
        ));
    }
    std::fs::create_dir_all(run::out_dir())?;
    let path = run::out_dir().join(format!("trace-{workload}.json"));
    let document = recorder.chrome_trace(workload, TRACE_FILE_SPANS);
    std::fs::write(&path, &document)?;
    let valid = sut::validate_chrome_trace(&document);
    notes.push(format!(
        "chrome trace: {} ({} spans recorded, {} written): {}",
        path.display(),
        recorder.len(),
        recorder.len().min(TRACE_FILE_SPANS),
        match &valid {
            Ok(events) => format!("valid, {events} events"),
            Err(why) => format!("INVALID: {why}"),
        }
    ));
    let mut own: Vec<(&str, u64)> = recorder.self_time_ns().into_iter().collect();
    own.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    notes.push(format!(
        "self time by span: {}",
        own.iter()
            .take(6)
            .map(|(name, ns)| format!("{name} {:.1} ms", *ns as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    layers.set("bench.spans", recorder.len() as f64);
    layers.set("bench.oracle_checks", tally.verified as f64);
    layers.set(
        "bench.failed_share",
        (tally.failed + tally.wrong) as f64 / tally.attempted.max(1) as f64,
    );
    Ok(Outcome {
        workload,
        correct: correct && valid.is_ok(),
        attempted: tally.attempted,
        failed: tally.failed + tally.wrong,
        metrics: layers.metrics(),
        notes,
    })
}

/// The traced run of a serving workload.
pub fn traced_serving(
    workload: &Serving,
    seed: u64,
    budget: Duration,
    quick: bool,
) -> Result<Outcome, SutError> {
    let mut run = Traced::new();
    let span = run.recorder.open("set_up", 0, 0);
    let mut stage = workload.set_up(seed)?;
    run.recorder.close(span);

    run.live_serving(workload, &mut stage, seed, budget, quick)?;
    run.calibrate();
    let sample: Vec<Job> = (0..if quick { 4 * CHUNK } else { REPLAY_JOBS })
        .map(|_| stage.mix.next_job())
        .collect();
    replay(
        &sample,
        &stage.store,
        seed,
        &mut run.recorder,
        &mut run.layers,
    )?;
    run.calibrate();
    offline_probe(
        seed,
        if quick { 1 } else { 2 },
        &mut run.recorder,
        &mut run.layers,
    )?;
    run.calibrate();
    let overhead =
        run.layers.get("serve.sweep.p50_us.r5000") - run.layers.get("core.score.nn_ns") / 1e3;
    run.layers.set("serve.overhead_us", overhead);
    if workload.wire {
        wire_tax(workload, seed, budget, quick, &mut run)?;
    }

    let stats = stage.driver.finish();
    set_final_counters(&stats, &mut run.layers);
    run.tally.verify(&stage.oracle);
    let mut notes = budget_table(&run.layers);
    let correct = serving::check(&stats, &run.tally, &mut notes);
    conclude(workload.name, run, correct, notes)
}

/// The wire tax: the same mix on a twin in-process server of the same
/// models, in the same process, so the two sides share the machine's
/// state as nearly as they can.
fn wire_tax(
    workload: &Serving,
    seed: u64,
    budget: Duration,
    quick: bool,
    run: &mut Traced,
) -> Result<(), SutError> {
    let twin = Serving {
        name: "twin",
        wire: false,
        ..*workload
    };
    let mut stage = twin.set_up(seed)?;
    let mut off = Recorder::new(false);
    let mut rates = Vec::new();
    for _ in 0..capacity_rounds(quick) {
        let burst = stage.burst(&mut run.tally, &mut off)?;
        rates.push(burst.rate());
    }
    let window_ns = (budget.as_nanos() as f64 * if quick { 0.005 } else { 0.1 }) as u64;
    let schedule = poisson_schedule(&mut SeededRng::new(seed, 8), OPEN_LOOP_RATE, window_ns);
    let window = stage
        .driver
        .open_loop(&mut stage.mix, &schedule, &mut run.tally)?;
    stage.driver.finish();
    let latency = window.latency_us();
    let layers = &mut run.layers;
    layers.set("serve.latency_p99_us", quantile(&latency, 0.99));
    layers.set(
        "net.wire_tax_us",
        layers.get("serve.sweep.p50_us.r5000") - quantile(&latency, 0.5),
    );
    layers.set(
        "net.capacity_ratio",
        layers.get("bench.capacity_untraced_per_s") / quantile(&rates, 0.8).max(1e-9),
    );
    Ok(())
}

/// The traced run of the offline workload: the pipeline phase by phase,
/// and the replay over its own jobs. Serving counters read 0.
pub fn traced_training(seed: u64, budget: Duration, quick: bool) -> Result<Outcome, SutError> {
    let mut run = Traced::new();
    let jobs = sut::generate_jobs(if quick { 4 * CHUNK } else { REPLAY_JOBS / 4 }, seed);
    let store = sut::train_serving_models(&jobs[..jobs.len().min(256)])?;
    run.calibrate();
    replay(&jobs, &store, seed, &mut run.recorder, &mut run.layers)?;
    // Fill what is left of the budget with probe passes (a repetition is
    // two passes of roughly 0.6 s each on the build box).
    let reps = if quick {
        1
    } else {
        ((budget.as_secs_f64() / 2.0) as usize).max(1)
    };
    run.calibrate();
    offline_probe(seed, reps, &mut run.recorder, &mut run.layers)?;
    run.calibrate();
    run.tally.attempted = 2 * reps as u64;
    let ratio = run.layers.get("train.phase_sum_ratio");
    let in_range = (0.95..=1.02).contains(&ratio);
    let notes = vec![format!(
        "train.phase_sum_ratio {ratio:.4} (phases / pass wall, expected within 0.95..1.02): {}",
        if in_range { "holds" } else { "OUT OF RANGE" }
    )];
    conclude("train_offline", run, in_range, notes)
}
