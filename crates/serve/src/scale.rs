//! The `/scale` routes: `rempd` as the coordinator of a sharded
//! campaign (see `crates/scale/SHARDING.md`).
//!
//! A *scale job* is a campaign directory written by
//! [`remp_scale::write_campaign`] plus, per shard, a `Leases` table
//! (one worker at a time) and a result slot. Time is the registry's
//! injected [`crate::clock::Clock`], so lease expiry is testable on
//! virtual time. `rempctl shard-worker` processes pull a shard, extend
//! their lease with heartbeats and submit a [`ShardResult`]; a missed
//! deadline returns the shard to the pending pool. Workers read
//! `.rshard` files directly and ship back only the small result JSON,
//! so a job's memory stays O(shards).
//!
//! Duplicate submissions (a worker that lost its lease but finished
//! anyway) are *accept-first*: every worker runs the same
//! [`remp_scale::process_shard`] on the same bytes, so the first wins
//! and later ones are acknowledged and dropped. Merging sorts by shard
//! id, so the outcome is independent of worker count and order.
//!
//! | route | body | answer |
//! |---|---|---|
//! | `POST /scale/jobs` | `{dir, lease_ms?}` | `201` job status |
//! | `GET /scale/jobs` | — | all job statuses |
//! | `GET /scale/jobs/{job}` | — | job status |
//! | `POST /scale/jobs/{job}/next` | `{worker}` | `{shard, path}` or `{shard: null, done}` |
//! | `POST /scale/jobs/{job}/heartbeat` | `{worker, shard}` | `{ok}` |
//! | `POST /scale/jobs/{job}/result` | a `ShardResult` | `{accepted, done}` |
//! | `GET /scale/jobs/{job}/outcome` | — | merged outcome, `409` until done |

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use remp_json::Json;
use remp_scale::{merge_results, CampaignManifest, MergedOutcome, ShardResult};

use crate::lease::{check_lease_ms, Leases};
use crate::wire::ServeError;

/// Default lease a worker holds on one shard.
pub const DEFAULT_LEASE_MS: u64 = 120_000;

/// The server's open scale jobs, keyed by job id (`s0`, `s1`, ...).
#[derive(Default)]
pub struct ScaleJobs {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    jobs: BTreeMap<String, Job>,
}

/// One campaign's shards, each with its lease and its result slot.
#[derive(Debug)]
struct Job {
    campaign: String,
    dir: PathBuf,
    shards: Vec<String>,
    gold_total: usize,
    lease_ms: u64,
    leases: Vec<Leases>,
    results: Vec<Option<ShardResult>>,
}

impl Job {
    fn prune(&mut self, now_ms: u64) {
        for leases in &mut self.leases {
            leases.prune(now_ms);
        }
    }

    /// Leases the lowest pending shard to `worker`; `None` when nothing
    /// is pending (work may still be leased elsewhere — [`Job::done`]
    /// tells "wait" from "finished").
    fn next(&mut self, worker: &str, now_ms: u64) -> Option<u32> {
        self.prune(now_ms);
        let idx = (0..self.shards.len())
            .find(|&i| self.results[i].is_none() && self.leases[i].is_empty())?;
        self.leases[idx].grant(worker, now_ms, self.lease_ms);
        Some(idx as u32)
    }

    /// Extends `worker`'s lease on `shard`; `false` when the worker no
    /// longer holds it (expired and possibly reassigned, or done).
    fn heartbeat(&mut self, worker: &str, shard: u32, now_ms: u64) -> bool {
        self.prune(now_ms);
        let idx = shard as usize;
        idx < self.shards.len()
            && self.results[idx].is_none()
            && self.leases[idx].renew(worker, now_ms, self.lease_ms)
    }

    /// Records a result: `Ok(true)` when accepted, `Ok(false)` for a
    /// duplicate (accept-first), `Err` for an unknown shard id or a
    /// result from another campaign.
    fn submit(&mut self, result: ShardResult) -> Result<bool, String> {
        if result.campaign != self.campaign {
            return Err(format!(
                "result for campaign `{}` submitted to `{}`",
                result.campaign, self.campaign
            ));
        }
        let Some(slot) = self.results.get_mut(result.shard_id as usize) else {
            return Err(format!("unknown shard id {}", result.shard_id));
        };
        if slot.is_some() {
            return Ok(false); // accept-first: identical by determinism
        }
        *slot = Some(result);
        Ok(true)
    }

    /// True once every shard has an accepted result.
    fn done(&self) -> bool {
        self.results.iter().all(Option::is_some)
    }

    /// The merged campaign outcome, once [`Job::done`].
    fn merged(&self) -> Option<MergedOutcome> {
        let results: Option<Vec<ShardResult>> = self.results.iter().cloned().collect();
        Some(merge_results(&self.campaign, &results?, self.gold_total))
    }

    /// The job's status document.
    fn doc(&self, id: &str) -> Json {
        let done = self.results.iter().filter(|r| r.is_some()).count();
        let leased = (0..self.shards.len())
            .filter(|&i| self.results[i].is_none() && !self.leases[i].is_empty())
            .count();
        let total = self.shards.len();
        Json::Obj(vec![
            ("job".into(), Json::from(id)),
            ("campaign".into(), Json::from(self.campaign.as_str())),
            ("dir".into(), Json::from(self.dir.display().to_string())),
            ("pending".into(), Json::from(total - done - leased)),
            ("leased".into(), Json::from(leased)),
            ("done".into(), Json::from(done)),
            ("total".into(), Json::from(total)),
            ("complete".into(), Json::from(done == total)),
        ])
    }
}

impl ScaleJobs {
    /// Opens the campaign in `dir` as a new job. `lease_ms = None`
    /// takes [`DEFAULT_LEASE_MS`]; `Some(0)` is a `400 bad_policy`.
    pub fn create(&self, dir: &str, lease_ms: Option<u64>) -> Result<(u16, Json), ServeError> {
        let lease_ms = lease_ms.unwrap_or(DEFAULT_LEASE_MS);
        check_lease_ms(lease_ms)?;
        let m = CampaignManifest::load(Path::new(dir))
            .map_err(|e| ServeError::bad_request("bad_campaign", e.to_string()))?;
        let job = Job {
            dir: PathBuf::from(dir),
            leases: vec![Leases::default(); m.shards.len()],
            results: vec![None; m.shards.len()],
            campaign: m.campaign,
            shards: m.shards,
            gold_total: m.gold_total,
            lease_ms,
        };
        let mut inner = self.inner.lock().expect("scale jobs poisoned");
        let id = format!("s{}", inner.next_id);
        inner.next_id += 1;
        let doc = job.doc(&id);
        inner.jobs.insert(id, job);
        Ok((201, doc))
    }

    /// Status documents of every open job.
    pub fn list(&self) -> (u16, Json) {
        let inner = self.inner.lock().expect("scale jobs poisoned");
        let jobs = inner.jobs.iter().map(|(id, job)| job.doc(id)).collect();
        (200, Json::Obj(vec![("jobs".into(), Json::Arr(jobs))]))
    }

    /// One job's status.
    pub fn status(&self, job: &str) -> Result<(u16, Json), ServeError> {
        Ok((200, self.with_job(job, |j| j.doc(job))?))
    }

    /// Leases the next pending shard to `worker`. `shard` is null when
    /// nothing is pending; `done` then distinguishes "campaign
    /// finished" from "wait and poll again".
    pub fn next(&self, job: &str, worker: &str, now_ms: u64) -> Result<(u16, Json), ServeError> {
        let doc = self.with_job(job, |job| match job.next(worker, now_ms) {
            Some(shard) => Json::Obj(vec![
                ("shard".into(), Json::from(u64::from(shard))),
                (
                    "path".into(),
                    Json::from(job.dir.join(&job.shards[shard as usize]).display().to_string()),
                ),
                ("done".into(), Json::from(false)),
            ]),
            None => Json::Obj(vec![
                ("shard".into(), Json::Null),
                ("done".into(), Json::from(job.done())),
            ]),
        })?;
        Ok((200, doc))
    }

    /// Extends `worker`'s lease on `shard`; `ok: false` means the lease
    /// was lost (expired and possibly reassigned).
    pub fn heartbeat(
        &self,
        job: &str,
        worker: &str,
        shard: u32,
        now_ms: u64,
    ) -> Result<(u16, Json), ServeError> {
        let ok = self.with_job(job, |j| j.heartbeat(worker, shard, now_ms))?;
        Ok((200, Json::Obj(vec![("ok".into(), Json::from(ok))])))
    }

    /// Accepts a [`ShardResult`] document. Duplicates are acknowledged
    /// with `accepted: false` (accept-first — see the module docs).
    pub fn result(&self, job: &str, doc: &Json) -> Result<(u16, Json), ServeError> {
        let result =
            ShardResult::from_json(doc).map_err(|e| ServeError::bad_request("bad_result", e))?;
        let (accepted, done) = self
            .with_job(job, |j| j.submit(result).map(|accepted| (accepted, j.done())))?
            .map_err(|e| ServeError::bad_request("bad_result", e))?;
        Ok((
            200,
            Json::Obj(vec![
                ("accepted".into(), Json::from(accepted)),
                ("done".into(), Json::from(done)),
            ]),
        ))
    }

    /// The merged campaign outcome; `409` while shards are outstanding.
    pub fn outcome(&self, job: &str) -> Result<(u16, Json), ServeError> {
        match self.with_job(job, |j| j.merged())? {
            Some(merged) => Ok((200, merged.to_json())),
            None => Err(ServeError::conflict(
                "not_done",
                format!("job {job:?} still has unfinished shards"),
            )),
        }
    }

    /// Runs `f` on job `id` under the jobs lock; `404` for an unknown id.
    fn with_job<T>(&self, id: &str, f: impl FnOnce(&mut Job) -> T) -> Result<T, ServeError> {
        let mut inner = self.inner.lock().expect("scale jobs poisoned");
        let job = inner
            .jobs
            .get_mut(id)
            .ok_or_else(|| ServeError::not_found("unknown_job", format!("no scale job {id:?}")))?;
        Ok(f(job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_core::RempConfig;
    use remp_datasets::{generate, tiny};
    use remp_ingest::LoadedKb;
    use remp_scale::{run_sharded_local, write_campaign, CrowdSpec, PlanMode};

    fn result(shard_id: u32) -> ShardResult {
        ShardResult {
            shard_id,
            campaign: "coord-test".into(),
            matches: vec![(format!("a{shard_id}"), format!("b{shard_id}"))],
            gold_matched: 1,
            gold_pairs: 1,
            pairs: 2,
            edge_count: 1,
            questions_asked: 2,
            loops: 1,
            transcript_digest: 100 + shard_id as u64,
            outcome_digest: 200 + shard_id as u64,
        }
    }

    /// A job over `shards` shard names with a 1000 ms lease; no
    /// campaign directory behind it.
    fn job(shards: usize) -> Job {
        Job {
            campaign: "coord-test".into(),
            dir: PathBuf::from("coord-test"),
            shards: (0..shards).map(|i| format!("shard-{i}")).collect(),
            gold_total: shards,
            lease_ms: 1000,
            leases: vec![Leases::default(); shards],
            results: vec![None; shards],
        }
    }

    #[test]
    fn leases_hand_out_each_shard_once() {
        let mut c = job(3);
        let a = c.next("w1", 0).unwrap();
        let b = c.next("w2", 0).unwrap();
        let d = c.next("w1", 0).unwrap();
        let mut ids = vec![a, b, d];
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(c.next("w3", 0).is_none(), "everything is leased");
        assert!(!c.done());
    }

    #[test]
    fn expired_leases_are_reassigned() {
        let mut c = job(1);
        assert_eq!(c.next("w1", 0), Some(0));
        assert!(c.next("w2", 500).is_none(), "lease still live");
        assert_eq!(c.next("w2", 1500), Some(0), "lease expired at t=1000");
        assert!(!c.heartbeat("w1", 0, 1600), "w1 lost the lease");
        assert!(c.heartbeat("w2", 0, 1600));
    }

    #[test]
    fn heartbeats_extend_the_deadline() {
        let mut c = job(1);
        c.next("w1", 0).unwrap();
        assert!(c.heartbeat("w1", 0, 900));
        assert!(c.next("w2", 1500).is_none(), "deadline moved to 1900");
    }

    #[test]
    fn duplicate_results_are_accept_first() {
        let mut c = job(2);
        assert_eq!(c.submit(result(0)), Ok(true));
        assert_eq!(c.submit(result(0)), Ok(false));
        assert!(c.submit(result(7)).is_err(), "unknown shard id");
        let mut wrong = result(1);
        wrong.campaign = "other".into();
        assert!(c.submit(wrong).is_err(), "cross-campaign submit");
        assert!(!c.done());
        assert!(c.merged().is_none());
        assert_eq!(c.submit(result(1)), Ok(true));
        assert!(c.done());
        let merged = c.merged().unwrap();
        assert_eq!(merged.shards, 2);
        assert_eq!(merged.matches_total, 2);
    }

    #[test]
    fn status_tracks_lifecycle() {
        let mut c = job(3);
        c.next("w1", 0).unwrap();
        c.next("w2", 0).unwrap();
        c.submit(result(0)).unwrap();
        let doc = c.doc("s0");
        let n = |k: &str| doc.get(k).and_then(Json::as_usize).unwrap();
        assert_eq!((n("pending"), n("leased"), n("done"), n("total")), (1, 1, 1, 3));
        assert!(!c.heartbeat("w1", 0, 10), "a done shard takes no heartbeat");
    }

    fn campaign_dir(tag: &str) -> std::path::PathBuf {
        let d = generate(&tiny(1.0));
        let dir = std::env::temp_dir().join(format!("remp-serve-scale-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let kb1 = LoadedKb {
            kb: d.kb1.clone(),
            external_ids: (0..d.kb1.num_entities()).map(|i| format!("a{i}")).collect(),
        };
        let kb2 = LoadedKb {
            kb: d.kb2.clone(),
            external_ids: (0..d.kb2.num_entities()).map(|i| format!("b{i}")).collect(),
        };
        write_campaign(
            &dir,
            tag,
            &kb1,
            &kb2,
            &d.gold,
            &RempConfig::default(),
            &CrowdSpec::Oracle,
            7,
            &PlanMode::Full,
            2,
        )
        .unwrap();
        dir
    }

    #[test]
    fn a_job_runs_to_the_same_outcome_as_the_local_runner() {
        let dir = campaign_dir("job");
        let reference = run_sharded_local(&dir).unwrap();

        let jobs = ScaleJobs::default();
        let (status, doc) = jobs.create(&dir.display().to_string(), None).unwrap();
        assert_eq!(status, 201);
        let job = doc.get("job").and_then(Json::as_str).unwrap().to_owned();
        let total = doc.get("total").and_then(Json::as_usize).unwrap();
        assert!(total >= 2);

        // Outcome before completion is a conflict, not an answer.
        assert_eq!(jobs.outcome(&job).unwrap_err().status, 409);

        loop {
            let (_, next) = jobs.next(&job, "w1", 0).unwrap();
            let Some(shard) = next.get("shard").and_then(Json::as_u64) else {
                assert!(next.get("done").and_then(Json::as_bool).unwrap());
                break;
            };
            let path = next.get("path").and_then(Json::as_str).unwrap();
            assert!(jobs.heartbeat(&job, "w1", shard as u32, 1).unwrap().1.get("ok").is_some());
            let result = remp_scale::process_shard(Path::new(path)).unwrap();
            let (_, ack) = jobs.result(&job, &result.to_json()).unwrap();
            assert!(ack.get("accepted").and_then(Json::as_bool).unwrap());
            // A duplicate is acknowledged, not an error.
            let (_, dup) = jobs.result(&job, &result.to_json()).unwrap();
            assert!(!dup.get("accepted").and_then(Json::as_bool).unwrap());
        }

        let (_, outcome) = jobs.outcome(&job).unwrap();
        let merged = MergedOutcome::from_json(&outcome).unwrap();
        assert_eq!(merged, reference, "coordinator path must equal run_sharded_local");
    }

    #[test]
    fn a_saturating_lease_keeps_the_job_registry_usable() {
        let dir = campaign_dir("huge-lease");
        let jobs = ScaleJobs::default();
        let (_, doc) = jobs.create(&dir.display().to_string(), Some(u64::MAX)).unwrap();
        let job = doc.get("job").and_then(Json::as_str).unwrap().to_owned();
        let (_, next) = jobs.next(&job, "w1", 1_000).unwrap();
        assert_eq!(next.get("shard").and_then(Json::as_u64), Some(0));
        let (_, beat) = jobs.heartbeat(&job, "w1", 0, 2_000).unwrap();
        assert_eq!(beat.get("ok").and_then(Json::as_bool), Some(true));
        let (status, doc) = jobs.status(&job).unwrap();
        assert_eq!(status, 200);
        assert_eq!(doc.get("leased").and_then(Json::as_usize), Some(1));
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        let jobs = ScaleJobs::default();
        assert_eq!(jobs.create("/nonexistent/campaign", None).unwrap_err().status, 400);
        assert_eq!(jobs.status("s0").unwrap_err().status, 404);
        assert_eq!(jobs.next("s0", "w", 0).unwrap_err().status, 404);
        let dir = campaign_dir("bad");
        let (_, doc) = jobs.create(&dir.display().to_string(), Some(1000)).unwrap();
        let job = doc.get("job").and_then(Json::as_str).unwrap().to_owned();
        assert_eq!(jobs.result(&job, &Json::Obj(vec![])).unwrap_err().status, 400);
    }
}
