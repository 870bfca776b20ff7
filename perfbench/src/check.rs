//! The response checker: every answer is parsed and held to the
//! service's promises, and the id-stripped stream is digested.

use ooo_core::json::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The response line without its leading `"id"` member: exactly the
/// daemon's id-independent payload body.
pub fn strip_id(line: &str) -> Option<String> {
    let rest = line.strip_prefix("{\"id\":")?;
    // Ids are integers or null here, so the first comma ends the id.
    let comma = rest.find(',')?;
    Some(format!("{{{}", &rest[comma + 1..]))
}

/// The id of a response line, when it is a non-negative integer.
pub fn id_of(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    rest[..rest.find(',')?].parse().ok()
}

#[derive(Debug, Default)]
pub struct CheckReport {
    /// Ids whose request failed at least one check (or was never
    /// answered).
    pub failed: BTreeSet<u64>,
    /// The first few failure reasons, for the log.
    pub reasons: Vec<String>,
    /// The id-stripped body of each answered id (first answer).
    pub bodies: BTreeMap<u64, String>,
}

impl CheckReport {
    fn fail(&mut self, id: u64, why: String) {
        self.failed.insert(id);
        if self.reasons.len() < 8 {
            self.reasons.push(format!("id {id}: {why}"));
        }
    }

    /// FNV-1a 64 over the first `prefix` id-stripped bodies in id order.
    pub fn digest(&self, prefix: usize) -> (u64, usize) {
        let mut text = String::new();
        let mut n = 0;
        for body in self.bodies.values().take(prefix) {
            text.push_str(body);
            text.push('\n');
            n += 1;
        }
        (ooo_core::hash::fnv64(text.as_bytes()), n)
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Checks one result object (an order, schedule, pipeline or cert
/// answer); `Err` names the broken promise. `below_baseline` says
/// whether the tuned makespan must not exceed the baseline's: it need
/// not when a memory cap rules the baseline itself out.
fn check_result(r: &Value, below_baseline: bool) -> Result<(), String> {
    let kind = r.get("kind").and_then(Value::as_str).unwrap_or("");
    let field = |k: &str| num(r, k).ok_or_else(|| format!("{kind} result lacks {k}"));
    match kind {
        "order" | "schedule" | "pipeline" => {
            let (base, tuned, cert, lb) = (
                field("baseline_makespan")?,
                field("tuned_makespan")?,
                field("certified_makespan")?,
                field("lower_bound")?,
            );
            if cert != tuned {
                return Err(format!("certified {cert} != tuned {tuned}"));
            }
            if !(lb <= tuned && (tuned <= base || !below_baseline)) {
                return Err(format!(
                    "not lower_bound {lb} <= tuned {tuned} <= baseline {base}"
                ));
            }
            Ok(())
        }
        "cert" => {
            let (base, best, lb) = (
                field("baseline_makespan")?,
                field("best_makespan")?,
                field("lower_bound")?,
            );
            if !(lb <= best && best <= base) {
                return Err(format!(
                    "not lower_bound {lb} <= best {best} <= baseline {base}"
                ));
            }
            Ok(())
        }
        other => Err(format!("result kind {other:?}")),
    }
}

fn check_body(body: &str, is_stats: bool, below_baseline: bool) -> Result<(), String> {
    let v = Value::parse(body).map_err(|e| format!("unparsable response: {e}"))?;
    let status = v.get("status").and_then(Value::as_str).unwrap_or("");
    if status != "ok" {
        return Err(format!("status {status:?}"));
    }
    if is_stats {
        return match v.get("stats") {
            Some(Value::Obj(_)) => Ok(()),
            _ => Err("stats response without counters".into()),
        };
    }
    match v.get("result") {
        Some(Value::Arr(items)) if !items.is_empty() => items
            .iter()
            .try_for_each(|r| check_result(r, below_baseline)),
        Some(r @ Value::Obj(_)) => check_result(r, below_baseline),
        _ => Err("no result".into()),
    }
}

/// Checks `responses` (raw lines, any order) against `sent`, the
/// `(id, request body)` pairs written to the daemon.
///
/// A request fails when it is unanswered or answered twice, its status
/// is not `ok`, a result breaks `certified == tuned` or
/// `lower_bound <= tuned <= baseline` (`<= best <=` for `cert`), or it
/// repeats an earlier request's body and its answer differs from the
/// first answer. `cap_met: false` is an honest answer, not a failure,
/// and so is `tuned > baseline` when `baseline_fits(request)` is false:
/// the request's memory cap excludes the heuristic baseline, so the
/// tuner must return a slower schedule that fits.
pub fn check(
    sent: &[(u64, &str)],
    responses: &[String],
    baseline_fits: impl Fn(&str) -> bool,
) -> CheckReport {
    let mut report = CheckReport::default();
    let requests: HashMap<u64, &str> = sent.iter().copied().collect();
    let mut first_answer: HashMap<&str, (u64, String)> = HashMap::new();
    let mut answered: BTreeSet<u64> = BTreeSet::new();
    for line in responses {
        let (Some(id), Some(body)) = (id_of(line), strip_id(line)) else {
            report
                .reasons
                .push(format!("response without a request id: {line:.120}"));
            continue;
        };
        let Some(&request) = requests.get(&id) else {
            report.reasons.push(format!("response for unknown id {id}"));
            continue;
        };
        if !answered.insert(id) {
            report.fail(id, "answered more than once".into());
            continue;
        }
        let is_stats = request == r#"{"cmd":"stats"}"#;
        if let Err(why) = check_body(&body, is_stats, is_stats || baseline_fits(request)) {
            report.fail(id, why);
        }
        if !is_stats {
            match first_answer.get(request) {
                Some((first, b)) if *b != body => {
                    report.fail(id, format!("duplicate of id {first} answered differently"))
                }
                Some(_) => {}
                None => {
                    first_answer.insert(request, (id, body.clone()));
                }
            }
        }
        report.bodies.insert(id, body);
    }
    for &(id, _) in sent {
        if !answered.contains(&id) {
            report.fail(id, "never answered".into());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const ORDER: &str = r#"{"cmd":"order","layers":8}"#;
    const OK: &str = r#"{"id":ID,"status":"ok","tier":"full","result":{"name":"x","kind":"order","baseline_makespan":28,"tuned_makespan":27,"certified_makespan":27,"lower_bound":26,"proven_optimal":false,"improved":true,"peak":null,"memory_cap":null,"cap_met":null,"k":null,"moves":1,"restarts_adopted":0}}"#;

    fn fits(_: &str) -> bool {
        true
    }

    fn answer(id: u64) -> String {
        OK.replace("ID", &id.to_string())
    }

    #[test]
    fn a_clean_stream_passes_and_digests_without_ids() {
        let sent = [(1, ORDER), (2, ORDER)];
        let r = check(&sent, &[answer(1), answer(2)], fits);
        assert!(r.failed.is_empty(), "{:?}", r.reasons);
        assert_eq!(r.bodies[&1], r.bodies[&2]);
        let shifted = check(&[(5, ORDER), (6, ORDER)], &[answer(5), answer(6)], fits);
        assert_eq!(r.digest(2), shifted.digest(2));
    }

    #[test]
    fn an_edited_tuned_makespan_fails() {
        let bad = answer(1).replace("\"tuned_makespan\":27", "\"tuned_makespan\":25");
        let r = check(&[(1, ORDER)], &[bad], fits);
        assert_eq!(r.failed.iter().copied().collect::<Vec<_>>(), vec![1]);
        // A tuned makespan above the baseline breaks the bracket too.
        let above = answer(1)
            .replace("\"tuned_makespan\":27", "\"tuned_makespan\":29")
            .replace("\"certified_makespan\":27", "\"certified_makespan\":29");
        assert!(!check(&[(1, ORDER)], std::slice::from_ref(&above), fits)
            .failed
            .is_empty());
        // Unless a memory cap rules the baseline out.
        assert!(check(&[(1, ORDER)], &[above], |_| false).failed.is_empty());
    }

    #[test]
    fn a_dropped_id_fails() {
        let r = check(&[(1, ORDER), (2, ORDER)], &[answer(1)], fits);
        assert_eq!(r.failed.iter().copied().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn a_duplicated_id_fails() {
        let r = check(
            &[(1, ORDER), (2, ORDER)],
            &[answer(1), answer(1), answer(2)],
            fits,
        );
        assert_eq!(r.failed.iter().copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn a_duplicate_request_must_get_the_same_answer() {
        let other = answer(2).replace("\"moves\":1", "\"moves\":2");
        let r = check(&[(1, ORDER), (2, ORDER)], &[answer(1), other], fits);
        assert_eq!(r.failed.iter().copied().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn non_ok_statuses_fail_but_unmet_caps_do_not() {
        let over = r#"{"id":1,"status":"overloaded"}"#.to_string();
        assert!(!check(&[(1, ORDER)], &[over], fits).failed.is_empty());
        let unmet = answer(1)
            .replace("\"memory_cap\":null", "\"memory_cap\":3")
            .replace("\"cap_met\":null", "\"cap_met\":false");
        assert!(check(&[(1, ORDER)], &[unmet], fits).failed.is_empty());
    }

    #[test]
    fn strip_id_yields_the_payload_body() {
        assert_eq!(
            strip_id(r#"{"id":12,"status":"ok"}"#).unwrap(),
            r#"{"status":"ok"}"#
        );
        assert_eq!(
            strip_id(r#"{"id":null,"status":"error"}"#).unwrap(),
            r#"{"status":"error"}"#
        );
        assert_eq!(id_of(r#"{"id":12,"status":"ok"}"#), Some(12));
    }
}
