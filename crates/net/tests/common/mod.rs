//! Shared by the wire-level test binaries: a seeded workload, one
//! quickly trained model registry per process (training is the expensive
//! part), and a reader for pipelined binary responses.

use scope_sim::{Job, WorkloadConfig, WorkloadGenerator};
use std::io::Read;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use tasq::models::{NnTrainConfig, XgbTrainConfig};
use tasq::pipeline::{
    JobRepository, ModelChoice, ModelStore, PipelineConfig, ScoreResponse, ScoringConfig,
    TasqPipeline,
};
use tasq_net::frame::{self, FrameResponse, FrameResponseParse};
use tasq_serve::ModelRegistry;

pub fn jobs(n: usize, seed: u64) -> Vec<Job> {
    WorkloadGenerator::new(WorkloadConfig { num_jobs: n, seed, ..Default::default() }).generate()
}

pub fn registry() -> Arc<ModelRegistry> {
    static REGISTRY: OnceLock<Arc<ModelRegistry>> = OnceLock::new();
    Arc::clone(REGISTRY.get_or_init(|| {
        let repo = JobRepository::new();
        repo.ingest(jobs(20, 7001));
        let store = ModelStore::new();
        TasqPipeline::new(PipelineConfig {
            xgb: XgbTrainConfig { num_rounds: 15, ..Default::default() },
            nn: NnTrainConfig { epochs: 8, ..Default::default() },
            ..Default::default()
        })
        .train(&repo, &store)
        .expect("pipeline trains");
        Arc::new(
            ModelRegistry::deploy(&store, ModelChoice::Nn, ScoringConfig::default())
                .expect("registry deploys"),
        )
    }))
}

/// Read `n` binary response frames off `stream`, in wire order; a
/// refusal, a malformed frame or an early close fails the test.
pub fn read_scores(stream: &mut TcpStream, n: usize) -> Vec<ScoreResponse> {
    let mut scores = Vec::with_capacity(n);
    let mut rbuf = Vec::new();
    let mut consumed = 0;
    let mut chunk = [0u8; 16384];
    while scores.len() < n {
        match frame::parse_response_frame(&rbuf, consumed) {
            FrameResponseParse::Complete(FrameResponse::Ok(score), used) => {
                consumed += used;
                scores.push(score);
            }
            FrameResponseParse::Complete(FrameResponse::Error(status), _) => {
                panic!("request {} refused with {status:?}", scores.len())
            }
            FrameResponseParse::NeedMore => {
                let read = stream.read(&mut chunk).expect("recv");
                assert!(read > 0, "server closed after {} responses", scores.len());
                rbuf.extend_from_slice(&chunk[..read]);
            }
            FrameResponseParse::Malformed(why) => panic!("malformed response: {why}"),
        }
    }
    scores
}
