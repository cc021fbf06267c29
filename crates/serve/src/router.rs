//! The route table: every endpoint `rempd` serves, declared as data.
//!
//! Each [`Route`] pairs a method and a segment pattern with its handler
//! and the low-cardinality `route` label the observability layer uses
//! (campaign ids never leak into label values). [`resolve`] walks the
//! table; the server only decides *how* to answer (JSON, Prometheus
//! text, or a parked long-poll) from the matched route's [`Action`] —
//! it never inspects paths itself.
//!
//! Error semantics are part of the wire contract: an unmatched `GET` or
//! `POST` is a 404 `unknown_route`, any other method is a 405
//! `method_not_allowed`, exactly as before the table existed.

use std::path::PathBuf;

use remp_core::RempConfig;
use remp_json::Json;
use remp_par::Parallelism;

use crate::engine::CrowdPolicy;
use crate::http::Request;
use crate::registry::{CampaignRequest, CampaignSource, CampaignSpec, Registry};
use crate::wire::{
    body_bool, body_opt_f64, body_opt_str, body_opt_u64, body_str, body_u64, parse_body,
    parse_question_id, ServeError,
};

/// One segment of a route pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seg {
    /// Matches exactly this literal segment.
    Lit(&'static str),
    /// Matches any single segment and captures it as a parameter.
    Param,
}

use Seg::{Lit, Param};

/// What a handler needs: the parsed request, the captured path
/// parameters (in pattern order) and the campaign registry.
pub struct Ctx<'r> {
    /// The parsed request (query, body).
    pub request: &'r Request,
    /// Captured `Param` segments, in order.
    pub params: Vec<&'r str>,
    /// The campaign registry.
    pub registry: &'r Registry,
    /// Sockets this server holds open, the request's own included.
    pub connections_open: usize,
}

impl Ctx<'_> {
    /// The `i`-th captured path parameter.
    fn param(&self, i: usize) -> &str {
        self.params[i]
    }

    /// One reading of the registry's injected clock per request — all
    /// lease arithmetic in a request agrees on "now".
    fn now_ms(&self) -> u64 {
        self.registry.now_ms()
    }
}

/// A handler producing `(status, body)` for a matched request.
pub type Handler = fn(&Ctx) -> Result<(u16, Json), ServeError>;

/// How the server should treat a matched route.
#[derive(Clone, Copy)]
pub enum Action {
    /// Run the handler, write the JSON response.
    Json(Handler),
    /// Run the handler; if the response carries no assignment and the
    /// request asked to wait (`wait_ms`), park the connection on the
    /// long-poll dispatcher instead of answering immediately.
    LongPoll(Handler),
    /// Rendered by the server itself: Prometheus text exposition, not
    /// JSON (the only non-JSON body in the protocol).
    Metrics,
}

/// One row of the route table.
pub struct Route {
    /// `GET` or `POST`.
    pub method: &'static str,
    /// The segment pattern (`/`-split, no empties).
    pub pattern: &'static [Seg],
    /// The static `route` label template for metrics and access logs.
    pub label: &'static str,
    /// How to answer.
    pub action: Action,
}

/// Every route `rempd` serves. Order matters only for readability —
/// patterns are disjoint.
pub static TABLE: &[Route] = &[
    Route {
        method: "GET",
        pattern: &[Lit("healthz")],
        label: "/healthz",
        action: Action::Json(healthz),
    },
    Route { method: "GET", pattern: &[Lit("metrics")], label: "/metrics", action: Action::Metrics },
    Route {
        method: "GET",
        pattern: &[Lit("campaigns")],
        label: "/campaigns",
        action: Action::Json(list_campaigns),
    },
    Route {
        method: "POST",
        pattern: &[Lit("campaigns")],
        label: "/campaigns",
        action: Action::Json(create_campaign),
    },
    Route {
        method: "GET",
        pattern: &[Lit("campaigns"), Param],
        label: "/campaigns/{id}",
        action: Action::Json(campaign_status),
    },
    Route {
        method: "GET",
        pattern: &[Lit("campaigns"), Param, Lit("questions")],
        label: "/campaigns/{id}/questions",
        action: Action::Json(campaign_questions),
    },
    Route {
        method: "GET",
        pattern: &[Lit("campaigns"), Param, Lit("workers")],
        label: "/campaigns/{id}/workers",
        action: Action::Json(campaign_workers),
    },
    Route {
        method: "GET",
        pattern: &[Lit("campaigns"), Param, Lit("events")],
        label: "/campaigns/{id}/events",
        action: Action::Json(campaign_events),
    },
    Route {
        method: "GET",
        pattern: &[Lit("campaigns"), Param, Lit("next")],
        label: "/campaigns/{id}/next",
        action: Action::LongPoll(next_question),
    },
    Route {
        method: "POST",
        pattern: &[Lit("campaigns"), Param, Lit("answers")],
        label: "/campaigns/{id}/answers",
        action: Action::Json(submit_answer),
    },
    Route {
        method: "GET",
        pattern: &[Lit("campaigns"), Param, Lit("outcome")],
        label: "/campaigns/{id}/outcome",
        action: Action::Json(campaign_outcome),
    },
    Route {
        method: "POST",
        pattern: &[Lit("campaigns"), Param, Lit("pause")],
        label: "/campaigns/{id}/pause",
        action: Action::Json(campaign_pause),
    },
    Route {
        method: "POST",
        pattern: &[Lit("campaigns"), Param, Lit("resume")],
        label: "/campaigns/{id}/resume",
        action: Action::Json(campaign_resume),
    },
    // Sharded-campaign coordination (crates/scale/SHARDING.md): the
    // registry's scale jobs run on the same injected lease clock as the
    // campaigns.
    Route {
        method: "POST",
        pattern: &[Lit("scale"), Lit("jobs")],
        label: "/scale/jobs",
        action: Action::Json(scale_create),
    },
    Route {
        method: "GET",
        pattern: &[Lit("scale"), Lit("jobs")],
        label: "/scale/jobs",
        action: Action::Json(scale_list),
    },
    Route {
        method: "GET",
        pattern: &[Lit("scale"), Lit("jobs"), Param],
        label: "/scale/jobs/{id}",
        action: Action::Json(scale_status),
    },
    Route {
        method: "POST",
        pattern: &[Lit("scale"), Lit("jobs"), Param, Lit("next")],
        label: "/scale/jobs/{id}/next",
        action: Action::Json(scale_next),
    },
    Route {
        method: "POST",
        pattern: &[Lit("scale"), Lit("jobs"), Param, Lit("heartbeat")],
        label: "/scale/jobs/{id}/heartbeat",
        action: Action::Json(scale_heartbeat),
    },
    Route {
        method: "POST",
        pattern: &[Lit("scale"), Lit("jobs"), Param, Lit("result")],
        label: "/scale/jobs/{id}/result",
        action: Action::Json(scale_result),
    },
    Route {
        method: "GET",
        pattern: &[Lit("scale"), Lit("jobs"), Param, Lit("outcome")],
        label: "/scale/jobs/{id}/outcome",
        action: Action::Json(scale_outcome),
    },
];

/// The outcome of matching a request against [`TABLE`].
pub enum Resolution<'p> {
    /// A route matched; captured parameters in pattern order.
    Matched { route: &'static Route, params: Vec<&'p str> },
    /// The method is routable (`GET`/`POST`) but no pattern matched.
    NotFound,
    /// The method is outside the supported set.
    MethodNotAllowed,
}

/// Matches `method path` against the table.
pub fn resolve<'p>(method: &str, path: &'p str) -> Resolution<'p> {
    if method != "GET" && method != "POST" {
        return Resolution::MethodNotAllowed;
    }
    let segments: Vec<&str> = path.split('/').filter(|segment| !segment.is_empty()).collect();
    for route in TABLE {
        if route.method == method {
            if let Some(params) = match_pattern(route.pattern, &segments) {
                return Resolution::Matched { route, params };
            }
        }
    }
    Resolution::NotFound
}

fn match_pattern<'p>(pattern: &[Seg], segments: &[&'p str]) -> Option<Vec<&'p str>> {
    if pattern.len() != segments.len() {
        return None;
    }
    let mut params = Vec::new();
    for (seg, &actual) in pattern.iter().zip(segments) {
        match seg {
            Lit(want) => {
                if *want != actual {
                    return None;
                }
            }
            Param => params.push(actual),
        }
    }
    Some(params)
}

/// The static route template a request path falls under — the
/// low-cardinality `route` label value. Method-independent (a 405 on a
/// known path still files under that path's template).
pub fn route_label(path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|segment| !segment.is_empty()).collect();
    TABLE
        .iter()
        .find(|route| match_pattern(route.pattern, &segments).is_some())
        .map_or("other", |route| route.label)
}

/// The campaign id a path addresses, if any — stamps the access-log
/// event so `/campaigns/{id}/events` includes the campaign's requests.
pub fn campaign_in_path(path: &str) -> Option<&str> {
    let mut segments = path.split('/').filter(|segment| !segment.is_empty());
    match (segments.next(), segments.next()) {
        (Some("campaigns"), Some(id)) => Some(id),
        _ => None,
    }
}

// ---- handlers ---------------------------------------------------------

fn healthz(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    Ok((
        200,
        Json::Obj(vec![
            ("status".into(), Json::from("ok")),
            ("version".into(), Json::from(env!("CARGO_PKG_VERSION"))),
            ("uptime_s".into(), Json::from(ctx.registry.uptime_s())),
            ("campaigns".into(), Json::from(ctx.registry.list().len())),
            ("observability".into(), Json::from(remp_obs::enabled())),
            ("metric_series".into(), Json::from(remp_obs::global().series_count())),
            // Serving pressure: how many sockets this server holds open,
            // how many of them are parked long-polls, and how much
            // un-compacted answer WAL is on disk. Counted per server, so
            // two servers in one process never read each other's.
            ("connections_open".into(), Json::from(ctx.connections_open)),
            ("longpoll_waiters".into(), Json::from(ctx.registry.longpoll_waiters())),
            ("wal_bytes".into(), Json::from(ctx.registry.wal_bytes())),
        ]),
    ))
}

fn list_campaigns(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    let mut items = Vec::new();
    for (id, _name) in ctx.registry.list() {
        let mut status =
            ctx.registry.call(&id, CampaignRequest::Status { now_ms: ctx.now_ms() })?;
        if let Json::Obj(fields) = &mut status {
            fields.insert(0, ("id".into(), Json::from(id.as_str())));
        }
        items.push(status);
    }
    Ok((200, Json::Obj(vec![("campaigns".into(), Json::Arr(items))])))
}

fn create_campaign(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    let spec = campaign_spec_from_body(&ctx.request.body)?;
    let id = ctx.registry.create(spec)?;
    let mut status = ctx.registry.call(&id, CampaignRequest::Status { now_ms: ctx.now_ms() })?;
    if let Json::Obj(fields) = &mut status {
        fields.insert(0, ("id".into(), Json::from(id.as_str())));
    }
    Ok((201, status))
}

fn campaign_status(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    Ok((200, ctx.registry.call(ctx.param(0), CampaignRequest::Status { now_ms: ctx.now_ms() })?))
}

fn campaign_questions(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    Ok((200, ctx.registry.call(ctx.param(0), CampaignRequest::Questions { now_ms: ctx.now_ms() })?))
}

fn campaign_workers(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    Ok((200, ctx.registry.call(ctx.param(0), CampaignRequest::Workers)?))
}

fn campaign_events(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    let id = ctx.param(0);
    if !ctx.registry.list().iter().any(|(cid, _)| cid == id) {
        return Err(ServeError::not_found("unknown_campaign", format!("no campaign {id:?}")));
    }
    let limit = ctx
        .request
        .query_value("limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(100)
        .max(1);
    let events = remp_obs::events_snapshot(Some(id), limit);
    Ok((
        200,
        Json::Obj(vec![
            ("campaign".into(), Json::from(id)),
            ("count".into(), Json::from(events.len())),
            ("events".into(), Json::Arr(events.iter().map(|e| e.to_json()).collect())),
        ]),
    ))
}

fn next_question(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    let worker = ctx
        .request
        .query_value("worker")
        .ok_or_else(|| {
            ServeError::bad_request("missing_worker", "query parameter 'worker' is required")
        })?
        .to_owned();
    Ok((
        200,
        ctx.registry.call(ctx.param(0), CampaignRequest::Next { worker, now_ms: ctx.now_ms() })?,
    ))
}

fn submit_answer(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    let doc = parse_body(&ctx.request.body)?;
    let worker = body_str(&doc, "worker")?.to_owned();
    let question = parse_question_id(body_str(&doc, "question")?)?;
    let says_match = body_bool(&doc, "says_match")?;
    Ok((
        200,
        ctx.registry.call(
            ctx.param(0),
            CampaignRequest::Answer { worker, question, says_match, now_ms: ctx.now_ms() },
        )?,
    ))
}

fn campaign_outcome(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    Ok((200, ctx.registry.call(ctx.param(0), CampaignRequest::Outcome)?))
}

fn campaign_pause(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    Ok((200, ctx.registry.call(ctx.param(0), CampaignRequest::Pause)?))
}

fn campaign_resume(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    Ok((200, ctx.registry.call(ctx.param(0), CampaignRequest::Resume)?))
}

fn scale_create(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    let doc = parse_body(&ctx.request.body)?;
    let dir = body_str(&doc, "dir")?;
    let lease_ms = body_opt_u64(&doc, "lease_ms")?;
    ctx.registry.scale_jobs().create(dir, lease_ms)
}

fn scale_list(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    Ok(ctx.registry.scale_jobs().list())
}

fn scale_status(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    ctx.registry.scale_jobs().status(ctx.param(0))
}

fn scale_next(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    let doc = parse_body(&ctx.request.body)?;
    let worker = body_str(&doc, "worker")?;
    ctx.registry.scale_jobs().next(ctx.param(0), worker, ctx.now_ms())
}

fn scale_heartbeat(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    let doc = parse_body(&ctx.request.body)?;
    let worker = body_str(&doc, "worker")?;
    let shard = body_u64(&doc, "shard")? as u32;
    ctx.registry.scale_jobs().heartbeat(ctx.param(0), worker, shard, ctx.now_ms())
}

fn scale_result(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    let doc = parse_body(&ctx.request.body)?;
    ctx.registry.scale_jobs().result(ctx.param(0), &doc)
}

fn scale_outcome(ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    ctx.registry.scale_jobs().outcome(ctx.param(0))
}

/// Decodes a `POST /campaigns` body into a spec.
///
/// ```json
/// {"name": "movies", "kb1": "a.rkb", "kb2": "b.rkb",
///  "mu": 10, "budget": 500, "threads": "auto",
///  "per_question": 5, "qualification": 0.85, "quality_weight": 5.0,
///  "lease_ms": 60000}
/// ```
///
/// Either `kb1`+`kb2` (server-side paths) or `preset` (+ optional
/// `scale`) selects the source.
pub fn campaign_spec_from_body(body: &[u8]) -> Result<CampaignSpec, ServeError> {
    let doc = parse_body(body)?;
    let source = match (body_opt_str(&doc, "preset")?, body_opt_str(&doc, "kb1")?) {
        (Some(preset), None) => CampaignSource::Preset {
            preset: preset.to_owned(),
            scale: body_opt_f64(&doc, "scale")?.unwrap_or(1.0),
        },
        (None, Some(kb1)) => CampaignSource::Files {
            kb1: PathBuf::from(kb1),
            kb2: PathBuf::from(body_str(&doc, "kb2")?),
        },
        (Some(_), Some(_)) => {
            return Err(ServeError::bad_request(
                "bad_source",
                "give either 'preset' or 'kb1'/'kb2', not both",
            ))
        }
        (None, None) => {
            return Err(ServeError::bad_request(
                "bad_source",
                "a campaign needs a 'preset' or a 'kb1'/'kb2' pair",
            ))
        }
    };
    let mut config = RempConfig::default();
    if let Some(mu) = body_opt_u64(&doc, "mu")? {
        config = config.with_mu(mu as usize);
    }
    if let Some(budget) = body_opt_u64(&doc, "budget")? {
        config = config.with_budget(budget as usize);
    }
    if let Some(threads) = body_opt_str(&doc, "threads")? {
        let parallelism = Parallelism::from_label(threads).ok_or_else(|| {
            ServeError::bad_request("bad_field", format!("unknown threads policy {threads:?}"))
        })?;
        config = config.with_parallelism(parallelism);
    }
    let default_policy = CrowdPolicy::default();
    let policy = CrowdPolicy {
        per_question: body_opt_u64(&doc, "per_question")?
            .map_or(default_policy.per_question, |n| n as usize),
        qualification: body_opt_f64(&doc, "qualification")?.unwrap_or(default_policy.qualification),
        quality_weight: body_opt_f64(&doc, "quality_weight")?
            .unwrap_or(default_policy.quality_weight),
        lease_ms: body_opt_u64(&doc, "lease_ms")?.unwrap_or(default_policy.lease_ms),
    };
    let name = body_opt_str(&doc, "name")?.unwrap_or("campaign").to_owned();
    Ok(CampaignSpec { name, source, config, policy })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_resolves_every_route_and_rejects_the_rest() {
        for (method, path, want) in [
            ("GET", "/healthz", "/healthz"),
            ("GET", "/metrics", "/metrics"),
            ("GET", "/campaigns", "/campaigns"),
            ("POST", "/campaigns", "/campaigns"),
            ("GET", "/campaigns/c0", "/campaigns/{id}"),
            ("GET", "/campaigns/c0/questions", "/campaigns/{id}/questions"),
            ("GET", "/campaigns/c0/workers", "/campaigns/{id}/workers"),
            ("GET", "/campaigns/c0/events", "/campaigns/{id}/events"),
            ("GET", "/campaigns/c0/next", "/campaigns/{id}/next"),
            ("POST", "/campaigns/c0/answers", "/campaigns/{id}/answers"),
            ("GET", "/campaigns/c0/outcome", "/campaigns/{id}/outcome"),
            ("POST", "/campaigns/c0/pause", "/campaigns/{id}/pause"),
            ("POST", "/campaigns/c0/resume", "/campaigns/{id}/resume"),
            ("POST", "/scale/jobs", "/scale/jobs"),
            ("GET", "/scale/jobs", "/scale/jobs"),
            ("GET", "/scale/jobs/j1", "/scale/jobs/{id}"),
            ("POST", "/scale/jobs/j1/next", "/scale/jobs/{id}/next"),
            ("POST", "/scale/jobs/j1/heartbeat", "/scale/jobs/{id}/heartbeat"),
            ("POST", "/scale/jobs/j1/result", "/scale/jobs/{id}/result"),
            ("GET", "/scale/jobs/j1/outcome", "/scale/jobs/{id}/outcome"),
        ] {
            match resolve(method, path) {
                Resolution::Matched { route, .. } => {
                    assert_eq!(route.label, want, "{method} {path}");
                    assert_eq!(route.method, method, "{method} {path}");
                }
                _ => panic!("{method} {path} must resolve"),
            }
            assert_eq!(route_label(path), want, "label for {path}");
        }
        // Unmatched GET/POST paths are 404s, foreign methods 405s —
        // the server relies on this split for the wire contract.
        assert!(matches!(resolve("GET", "/campaigns/c0/teapot"), Resolution::NotFound));
        assert!(matches!(resolve("POST", "/healthz"), Resolution::NotFound));
        assert!(matches!(resolve("PUT", "/campaigns/c0"), Resolution::MethodNotAllowed));
        assert!(matches!(resolve("DELETE", "/healthz"), Resolution::MethodNotAllowed));
        assert_eq!(route_label("/campaigns/c0/teapot"), "other");
    }

    #[test]
    fn params_capture_in_pattern_order() {
        match resolve("GET", "/campaigns/movie-42/next") {
            Resolution::Matched { params, .. } => assert_eq!(params, vec!["movie-42"]),
            _ => panic!("must match"),
        }
    }

    #[test]
    fn campaign_ids_are_extracted_for_event_scoping() {
        assert_eq!(campaign_in_path("/campaigns/c7/answers"), Some("c7"));
        assert_eq!(campaign_in_path("/campaigns/c7"), Some("c7"));
        assert_eq!(campaign_in_path("/scale/jobs/j1"), None);
        assert_eq!(campaign_in_path("/healthz"), None);
    }

    #[test]
    fn campaign_bodies_decode_and_reject() {
        let spec = campaign_spec_from_body(
            br#"{"preset":"TINY","per_question":3,"budget":40,"name":"t"}"#,
        )
        .unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!(spec.policy.per_question, 3);
        assert_eq!(spec.config.max_questions, Some(40));
        assert!(matches!(spec.source, CampaignSource::Preset { .. }));

        let spec = campaign_spec_from_body(br#"{"kb1":"a.rkb","kb2":"b.rkb"}"#).unwrap();
        assert!(matches!(spec.source, CampaignSource::Files { .. }));

        for bad in [
            &br#"{}"#[..],
            br#"{"preset":"TINY","kb1":"a"}"#,
            br#"{"kb1":"a.rkb"}"#,
            br#"{"preset":"TINY","threads":"warp"}"#,
            br#"not json"#,
        ] {
            assert_eq!(campaign_spec_from_body(bad).unwrap_err().status, 400, "{bad:?}");
        }
    }
}
