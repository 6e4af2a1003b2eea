//! Outcome digests and the op-level check ledger.

use hlisa_crawler::SiteResult;
use hlisa_web::{VisitOutcome, VisualOutcome};

/// A word-at-a-time 64-bit digest (multiply–xorshift per word). The fold
/// runs inside every timed shard op, so it mixes whole words rather than
/// bytes to keep the benchmark's own share of the op small.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes a `u64`.
    pub fn u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
    }

    /// Mixes raw bytes (length-prefixed, zero-padded to whole words).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }

    /// Mixes status codes four to a word (length-prefixed).
    pub fn codes(&mut self, codes: &[u16]) {
        self.u64(codes.len() as u64);
        for chunk in codes.chunks(4) {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &c)| w | u64::from(c) << (16 * i));
            self.u64(word);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn visit_digest(h: &mut Digest, o: &VisitOutcome) {
    h.u64(
        u64::from(o.reached)
            | u64::from(o.successful) << 1
            | u64::from(o.detected) << 2
            | (o.visual as u64) << 8,
    );
    h.codes(&o.first_party);
    h.codes(&o.third_party);
}

/// Whether a visit shows the client a block page or a CAPTCHA.
fn is_blocked(o: &VisitOutcome) -> bool {
    matches!(o.visual, VisualOutcome::BlockPage | VisualOutcome::Captcha)
}

/// One shard's fold: what the engine's summarise closure keeps and what
/// the replay must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// Sites in the shard.
    pub sites: u64,
    /// Visits made.
    pub visits: u64,
    /// Successful visits.
    pub successes: u64,
    /// Sites with at least one blocked visit.
    pub blocked_sites: u64,
    /// Digest of every site's domain, rank and visit outcomes.
    pub digest: u64,
}

/// Folds one shard's (or any slice's) site results.
pub fn fold(shard: usize, results: &[SiteResult]) -> ShardSummary {
    let mut h = Digest::default();
    let mut s = ShardSummary {
        shard,
        sites: results.len() as u64,
        ..ShardSummary::default()
    };
    for r in results {
        h.bytes(r.domain.as_bytes());
        h.u64(u64::from(r.rank));
        h.u64(r.outcomes.len() as u64);
        for o in &r.outcomes {
            visit_digest(&mut h, o);
        }
        s.visits += r.outcomes.len() as u64;
        s.successes += r.outcomes.iter().filter(|o| o.successful).count() as u64;
        s.blocked_sites += u64::from(r.outcomes.iter().any(is_blocked));
    }
    s.digest = h.finish();
    s
}

/// Digest of a shard sequence (shard order matters).
pub fn combine(summaries: &[ShardSummary]) -> u64 {
    let mut h = Digest::default();
    for s in summaries {
        h.u64(s.shard as u64);
        h.u64(s.digest);
    }
    h.finish()
}

/// Ops attempted and failed, plus run-level checks.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose check failed.
    pub failed: u64,
    /// Run-level checks: `(name, passed)`.
    pub checks: Vec<(String, bool)>,
}

impl Ledger {
    /// Counts one op; it fails when `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a run-level check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Whether every op and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Counts each observed shard as one op that passes only when it matches
/// the reference shard at the same position (same shard, sites, visits
/// and digest). A missing or extra shard fails too.
pub fn check_shards(ledger: &mut Ledger, reference: &[ShardSummary], observed: &[ShardSummary]) {
    for (i, got) in observed.iter().enumerate() {
        ledger.op(reference.get(i) == Some(got));
    }
    for _ in observed.len()..reference.len() {
        ledger.op(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(visual: VisualOutcome) -> VisitOutcome {
        VisitOutcome {
            reached: true,
            successful: true,
            visual,
            first_party: vec![200, 200],
            third_party: vec![200],
            detected: false,
        }
    }

    fn results() -> Vec<SiteResult> {
        (0..4)
            .map(|i| SiteResult {
                domain: format!("site{i:04}.example"),
                rank: i + 1,
                outcomes: vec![outcome(if i == 2 {
                    VisualOutcome::BlockPage
                } else {
                    VisualOutcome::Normal
                })],
            })
            .collect()
    }

    #[test]
    fn fold_counts_and_digests_every_field() {
        let rs = results();
        let s = fold(3, &rs);
        assert_eq!((s.shard, s.sites, s.visits, s.successes), (3, 4, 4, 4));
        assert_eq!(s.blocked_sites, 1);
        let mut changed = rs.clone();
        changed[1].outcomes[0].third_party[0] = 503;
        assert_ne!(fold(3, &changed).digest, s.digest);
        let mut changed = rs.clone();
        changed[0].rank += 1;
        assert_ne!(fold(3, &changed).digest, s.digest);
        // A code moved between the first- and third-party lists changes
        // the digest too (each list is length-prefixed).
        let mut changed = rs.clone();
        let moved = changed[0].outcomes[0].first_party.pop().unwrap();
        changed[0].outcomes[0].third_party.insert(0, moved);
        assert_ne!(fold(3, &changed).digest, s.digest);
    }

    #[test]
    fn a_corrupted_digest_counts_as_one_failed_op() {
        let reference: Vec<ShardSummary> = (0..5).map(|k| fold(k, &results())).collect();
        let mut clean = Ledger::default();
        check_shards(&mut clean, &reference, &reference);
        assert_eq!((clean.attempted, clean.failed), (5, 0));
        assert!(clean.correct());

        let mut corrupted = reference.clone();
        corrupted[2].digest ^= 1;
        let mut ledger = Ledger::default();
        check_shards(&mut ledger, &reference, &corrupted);
        assert_eq!((ledger.attempted, ledger.failed), (5, 1));
        assert!(!ledger.correct());
        assert_ne!(combine(&corrupted), combine(&reference));
    }

    #[test]
    fn a_missing_shard_fails() {
        let reference: Vec<ShardSummary> = (0..3).map(|k| fold(k, &results())).collect();
        let mut ledger = Ledger::default();
        check_shards(&mut ledger, &reference, &reference[..2]);
        assert_eq!((ledger.attempted, ledger.failed), (3, 1));
    }
}
