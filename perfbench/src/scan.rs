//! Reads report counters by key from emitted JSON text.
//!
//! The benchmark never names a report type: it walks the JSON the service
//! emitted and picks values by key name. A reshaped report moves keys
//! around, which this module tolerates; a key that disappears reads as
//! "not reported" instead of breaking the build.

use std::collections::HashMap;

/// One step of the path from the document root to a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Seg<'a> {
    /// A member of an object, by key (raw text between the quotes).
    Key(&'a str),
    /// An element of an array, by position.
    Index(usize),
}

/// A value reached by the walk: scalars, and arrays once closed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Leaf {
    Num(f64),
    Bool(bool),
    /// Strings and `null`; their content is never needed.
    Other,
    /// An array with this many elements (reported after its elements).
    Array(usize),
}

/// Walks `text`, calling `visit` with the path of every leaf.
pub fn walk<'a>(text: &'a str, visit: &mut dyn FnMut(&[Seg<'a>], Leaf)) -> Result<(), String> {
    let mut walker = Walker {
        bytes: text.as_bytes(),
        text,
        pos: 0,
        path: Vec::new(),
    };
    walker.value(visit)?;
    walker.ws();
    if walker.pos != walker.bytes.len() {
        return Err(format!("trailing bytes at offset {}", walker.pos));
    }
    Ok(())
}

struct Walker<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
    path: Vec<Seg<'a>>,
}

impl<'a> Walker<'a> {
    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("malformed JSON at offset {}: {what}", self.pos)
    }

    /// Skips a string starting at the opening quote and returns its raw
    /// content (escapes left as written).
    fn string(&mut self) -> Result<&'a str, String> {
        let start = self.pos + 1;
        let mut i = start;
        loop {
            match self.bytes.get(i) {
                None => return Err(self.err("unterminated string")),
                Some(b'\\') => i += 2,
                Some(b'"') => break,
                Some(_) => i += 1,
            }
        }
        self.pos = i + 1;
        Ok(&self.text[start..i])
    }

    fn value(&mut self, visit: &mut dyn FnMut(&[Seg<'a>], Leaf)) -> Result<(), String> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                self.ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return Err(self.err("expected a key"));
                    }
                    let key = self.string()?;
                    self.ws();
                    if self.bytes.get(self.pos) != Some(&b':') {
                        return Err(self.err("expected `:`"));
                    }
                    self.pos += 1;
                    self.path.push(Seg::Key(key));
                    self.value(visit)?;
                    self.path.pop();
                    self.ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                self.ws();
                let mut len = 0;
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                } else {
                    loop {
                        self.path.push(Seg::Index(len));
                        self.value(visit)?;
                        self.path.pop();
                        len += 1;
                        self.ws();
                        match self.bytes.get(self.pos) {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                break;
                            }
                            _ => return Err(self.err("expected `,` or `]`")),
                        }
                    }
                }
                visit(&self.path, Leaf::Array(len));
                Ok(())
            }
            Some(b'"') => {
                self.string()?;
                visit(&self.path, Leaf::Other);
                Ok(())
            }
            Some(b't') | Some(b'f') | Some(b'n') => {
                let rest = &self.bytes[self.pos..];
                let (leaf, len) = if rest.starts_with(b"true") {
                    (Leaf::Bool(true), 4)
                } else if rest.starts_with(b"false") {
                    (Leaf::Bool(false), 5)
                } else if rest.starts_with(b"null") {
                    (Leaf::Other, 4)
                } else {
                    return Err(self.err("invalid literal"));
                };
                self.pos += len;
                visit(&self.path, leaf);
                Ok(())
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let num = self.text[start..self.pos]
                    .parse()
                    .map_err(|_| self.err("invalid number"))?;
                visit(&self.path, Leaf::Num(num));
                Ok(())
            }
            _ => Err(self.err("unexpected byte")),
        }
    }
}

/// Hit and lookup totals over every cache section of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheTotals {
    /// Sections found.
    pub sections: usize,
    pub lookups: f64,
    pub hits: f64,
}

impl CacheTotals {
    fn add(&mut self, field: &str, v: f64) {
        match field {
            "lookups" => {
                self.sections += 1;
                self.lookups += v;
            }
            "hits" => self.hits += v,
            _ => {}
        }
    }

    /// Hits over lookups, or `None` when no section was found.
    pub fn hit_rate(&self) -> Option<f64> {
        (self.sections > 0).then(|| crate::measure::ratio(self.hits, self.lookups))
    }
}

/// The per-session fields the benchmark checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct SessionFacts {
    pub id: Option<u64>,
    pub abandoned: bool,
    pub failed_members: u64,
    pub reception_latency: Option<f64>,
}

/// Everything the benchmark reads out of one emitted report.
#[derive(Debug, Default)]
pub struct ReportFacts {
    /// Shallowest numeric occurrence of each key (first one on ties).
    numbers: HashMap<String, (usize, f64)>,
    /// Shallowest array length of each key.
    arrays: HashMap<String, (usize, usize)>,
    /// Records of the `per_session` array, by position.
    pub sessions: Vec<SessionFacts>,
    /// Sections named `cache`, `dp_cache` or `*_dp_cache`.
    pub dp_cache: CacheTotals,
    /// Sections named `plan_cache` or `*_plan_cache`.
    pub plan_cache: CacheTotals,
}

impl ReportFacts {
    /// Scans one emitted report.
    pub fn scan(json: &str) -> Result<ReportFacts, String> {
        let mut facts = ReportFacts::default();
        walk(json, &mut |path, leaf| facts.observe(path, leaf))?;
        Ok(facts)
    }

    fn observe(&mut self, path: &[Seg<'_>], leaf: Leaf) {
        let Some(&Seg::Key(key)) = path.last() else {
            return;
        };
        let depth = path.len();
        // A record of the per-session list: `per_session[i]...key`.
        if let Some(at) = path.iter().position(|s| *s == Seg::Key("per_session")) {
            if let Some(&Seg::Index(i)) = path.get(at + 1) {
                if self.sessions.len() <= i {
                    self.sessions.resize(i + 1, SessionFacts::default());
                }
                let record = &mut self.sessions[i];
                match (key, leaf) {
                    ("id", Leaf::Num(v)) => record.id = Some(v as u64),
                    ("abandoned", Leaf::Bool(b)) => record.abandoned = b,
                    ("failed_members", Leaf::Num(v)) => record.failed_members = v as u64,
                    ("reception_latency", Leaf::Num(v)) => record.reception_latency = Some(v),
                    _ => {}
                }
                return;
            }
        }
        match leaf {
            Leaf::Num(v) => {
                if let Some(&Seg::Key(parent)) = path.len().checked_sub(2).map(|i| &path[i]) {
                    if parent == "cache" || parent.ends_with("dp_cache") {
                        self.dp_cache.add(key, v);
                    } else if parent.ends_with("plan_cache") {
                        self.plan_cache.add(key, v);
                    }
                }
                let slot = self.numbers.entry(key.to_string()).or_insert((depth, v));
                if depth < slot.0 {
                    *slot = (depth, v);
                }
            }
            Leaf::Array(len) => {
                let slot = self.arrays.entry(key.to_string()).or_insert((depth, len));
                if depth < slot.0 {
                    *slot = (depth, len);
                }
            }
            _ => {}
        }
    }

    /// The shallowest numeric value under `key`, if the report has one.
    pub fn number(&self, key: &str) -> Option<f64> {
        self.numbers.get(key).map(|&(_, v)| v)
    }

    /// The length of the shallowest array under `key`, if any.
    pub fn array_len(&self, key: &str) -> Option<usize> {
        self.arrays.get(key).map(|&(_, n)| n)
    }

    /// Sessions abandoned (shed sessions included) or with failed members.
    pub fn failed_sessions(&self) -> u64 {
        self.sessions
            .iter()
            .filter(|s| s.abandoned || s.failed_members > 0)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_keys_wherever_they_sit() {
        let json = r#"{
          "sessions": 2,
          "total": {"p99_reception_latency": 40},
          "cross": {"p99_reception_latency": 99},
          "plan_cache": true,
          "per_shard": [{"dp_cache": {"lookups": 4, "hits": 3, "misses": 1, "evictions": 0},
                         "plan_cache": {"lookups": 2, "hits": 1, "misses": 1, "evictions": 0}}],
          "gateway_dp_cache": {"lookups": 4, "hits": 1, "misses": 3, "evictions": 2},
          "control": {"migrations": [{"node": 1}], "shed": 1},
          "per_session": [
            {"home_shard": 0, "record": {"id": 0, "abandoned": false, "failed_members": 0, "reception_latency": 12, "nacks": 5}},
            {"record": {"id": 1, "abandoned": true, "failed_members": 0, "reception_latency": 0, "label": "a\"b"}}
          ]
        }"#;
        let facts = ReportFacts::scan(json).unwrap();
        assert_eq!(facts.number("sessions"), Some(2.0));
        assert_eq!(facts.number("p99_reception_latency"), Some(40.0));
        assert_eq!(facts.number("shed"), Some(1.0));
        assert_eq!(
            facts.number("nacks"),
            None,
            "per-session keys stay per-session"
        );
        assert_eq!(facts.array_len("migrations"), Some(1));
        assert_eq!(facts.number("components"), None);
        assert_eq!(facts.dp_cache.sections, 2);
        assert_eq!(facts.dp_cache.hit_rate(), Some(0.5));
        assert_eq!(facts.plan_cache.hit_rate(), Some(0.5));
        assert_eq!(facts.sessions.len(), 2);
        assert_eq!(facts.sessions[1].id, Some(1));
        assert_eq!(facts.failed_sessions(), 1);
    }

    #[test]
    fn rejects_malformed_text() {
        assert!(ReportFacts::scan("{\"a\": }").is_err());
        assert!(ReportFacts::scan("[1, 2").is_err());
        assert!(ReportFacts::scan("{} x").is_err());
    }
}
