//! The delivery oracle: which `(subscription, publication)` pairs must
//! arrive, computed by brute force over `Subscription::matches`.
//!
//! Publication `seq` carries the attribute values of base message
//! `seq % n`, so the static population's expected fan-out is computed
//! once per base message before the cluster starts. Subscriptions that
//! come and go during a run carry a *required window* of publication
//! sequence numbers `[from, to)`: `from` is the publisher's start
//! counter read after `subscribe()` returned (every later publication
//! began after the ack), `to` its done counter read before the
//! unsubscribe call. A matching delivery outside the window is allowed
//! — the publication was in flight while the subscription changed —
//! but not required.

use bluedove_core::{Message, Subscription};
use std::ops::Range;

/// One delivery as the collector saw it: publication sequence number
/// and the benchmark-local index of the subscription it arrived for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Receipt {
    /// Publication sequence number (stamped in the payload).
    pub seq: u32,
    /// Benchmark-local subscription index, or [`Receipt::FOREIGN`] when
    /// the delivery named a subscription its endpoint never registered.
    pub sub: u32,
}

impl Receipt {
    /// Marks a delivery to a subscription the endpoint does not own.
    pub const FOREIGN: u32 = u32::MAX;
}

/// What went wrong, and how much, over a range of publications.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Deliveries the oracle requires.
    pub expected: u64,
    /// Required deliveries that arrived (once each).
    pub delivered: u64,
    /// Required deliveries that never arrived.
    pub missing: u64,
    /// Repeated `(subscription, publication)` pairs after endpoint dedup.
    pub duplicates: u64,
    /// Deliveries to a subscription the publication does not match (or
    /// that its endpoint never registered).
    pub wrong: u64,
    /// Matching deliveries outside a subscription's required window.
    pub allowed_extra: u64,
}

impl Verdict {
    /// Deliveries that went wrong: missing, duplicated or misdirected.
    pub fn failed(&self) -> u64 {
        self.missing + self.duplicates + self.wrong
    }

    /// [`failed`](Self::failed) over the deliveries the oracle expects.
    pub fn loss_ratio(&self) -> f64 {
        if self.expected == 0 {
            0.0
        } else {
            self.failed() as f64 / self.expected as f64
        }
    }

    /// Sums two verdicts.
    pub fn add(&mut self, o: &Verdict) {
        self.expected += o.expected;
        self.delivered += o.delivered;
        self.missing += o.missing;
        self.duplicates += o.duplicates;
        self.wrong += o.wrong;
        self.allowed_extra += o.allowed_extra;
    }
}

/// Subscriptions, their required windows and the base messages.
pub struct Oracle {
    msgs: Vec<Message>,
    subs: Vec<Subscription>,
    windows: Vec<Range<u64>>,
    /// Subscriptions below this index form the static population.
    statics: usize,
    /// Static-population matches per base message.
    static_counts: Vec<u32>,
}

impl Oracle {
    /// Builds the oracle for `statics` (required for every publication)
    /// over the base messages `msgs`, counting matches by brute force on
    /// `threads` threads.
    pub fn new(msgs: Vec<Message>, statics: Vec<Subscription>, threads: usize) -> Self {
        assert!(!msgs.is_empty(), "the oracle needs base messages");
        let chunk = msgs.len().div_ceil(threads.max(1));
        let static_counts: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> = msgs
                .chunks(chunk)
                .map(|part| {
                    let subs = &statics;
                    s.spawn(move || {
                        part.iter()
                            .map(|m| subs.iter().filter(|sub| sub.matches(m)).count() as u32)
                            .collect::<Vec<u32>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        let n = statics.len();
        Oracle {
            msgs,
            windows: vec![0..u64::MAX; n],
            subs: statics,
            statics: n,
            static_counts,
        }
    }

    /// The base message publication `seq` carries.
    pub fn message(&self, seq: u64) -> &Message {
        &self.msgs[(seq % self.msgs.len() as u64) as usize]
    }

    /// The subscription at benchmark-local index `i`.
    pub fn sub(&self, i: u32) -> &Subscription {
        &self.subs[i as usize]
    }

    /// Registers a subscription that joins mid-run, required from
    /// publication `from` on; returns its local index.
    pub fn add(&mut self, sub: Subscription, from: u64) -> u32 {
        self.subs.push(sub);
        self.windows.push(from..u64::MAX);
        (self.subs.len() - 1) as u32
    }

    /// Closes subscription `i`'s required window before publication `to`.
    pub fn close(&mut self, i: u32, to: u64) {
        let w = &mut self.windows[i as usize];
        w.end = to.max(w.start);
    }

    /// Whether a delivery of `seq` to subscription `i` is required.
    pub fn required(&self, i: u32, seq: u64) -> bool {
        self.windows[i as usize].contains(&seq)
    }

    /// Deliveries required for the publications in `range`.
    pub fn expected(&self, range: Range<u64>) -> u64 {
        let mut total: u64 = range
            .clone()
            .map(|s| u64::from(self.static_counts[(s % self.msgs.len() as u64) as usize]))
            .sum();
        for (sub, w) in self.subs[self.statics..]
            .iter()
            .zip(&self.windows[self.statics..])
        {
            let lo = w.start.max(range.start);
            let hi = w.end.min(range.end);
            total += (lo..hi).filter(|&s| sub.matches(self.message(s))).count() as u64;
        }
        total
    }

    /// Judges the receipts whose publication lies in `range`.
    pub fn verify<'a>(
        &self,
        receipts: impl IntoIterator<Item = &'a Receipt>,
        range: Range<u64>,
    ) -> Verdict {
        let mut inside: Vec<Receipt> = receipts
            .into_iter()
            .filter(|r| range.contains(&u64::from(r.seq)))
            .copied()
            .collect();
        inside.sort_unstable();
        let mut v = Verdict {
            expected: self.expected(range),
            ..Verdict::default()
        };
        let mut prev: Option<Receipt> = None;
        for r in inside {
            if prev == Some(r) {
                v.duplicates += 1;
                continue;
            }
            prev = Some(r);
            let seq = u64::from(r.seq);
            if r.sub == Receipt::FOREIGN || !self.sub(r.sub).matches(self.message(seq)) {
                v.wrong += 1;
            } else if self.required(r.sub, seq) {
                v.delivered += 1;
            } else {
                v.allowed_extra += 1;
            }
        }
        v.missing = v.expected - v.delivered.min(v.expected);
        v
    }
}

impl Oracle {
    /// Up to `limit` required `(seq, subscription index)` pairs of
    /// `range` that have no receipt — the diagnostic printed when a
    /// phase loses deliveries.
    pub fn missing<'a>(
        &self,
        receipts: impl IntoIterator<Item = &'a Receipt>,
        range: Range<u64>,
        limit: usize,
    ) -> Vec<(u64, u32)> {
        let got: std::collections::HashSet<(u64, u32)> = receipts
            .into_iter()
            .filter(|r| range.contains(&u64::from(r.seq)))
            .map(|r| (u64::from(r.seq), r.sub))
            .collect();
        let mut out = Vec::new();
        for seq in range {
            for i in 0..self.subs.len() as u32 {
                if out.len() >= limit {
                    return out;
                }
                if self.required(i, seq)
                    && self.sub(i).matches(self.message(seq))
                    && !got.contains(&(seq, i))
                {
                    out.push((seq, i));
                }
            }
        }
        out
    }

    /// Subscription `i`'s required window.
    pub fn window(&self, i: u32) -> Range<u64> {
        self.windows[i as usize].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedove_core::{AttributeSpace, SubscriptionId};

    fn space() -> AttributeSpace {
        AttributeSpace::uniform(2, 0.0, 100.0)
    }

    fn sub(id: u64, x: (f64, f64), y: (f64, f64)) -> Subscription {
        let mut s = Subscription::builder(&space())
            .range(0, x.0, x.1)
            .range(1, y.0, y.1)
            .build()
            .unwrap();
        s.id = SubscriptionId(id);
        s
    }

    /// Message 0 at (10, 10), message 1 at (60, 60).
    fn oracle() -> Oracle {
        let msgs = vec![
            Message::new(vec![10.0, 10.0]),
            Message::new(vec![60.0, 60.0]),
        ];
        let statics = vec![
            sub(1, (0.0, 50.0), (0.0, 50.0)),   // matches msg 0
            sub(2, (0.0, 100.0), (0.0, 100.0)), // matches both
            sub(3, (70.0, 80.0), (70.0, 80.0)), // matches neither
        ];
        Oracle::new(msgs, statics, 2)
    }

    fn r(seq: u32, sub: u32) -> Receipt {
        Receipt { seq, sub }
    }

    #[test]
    fn brute_force_counts_expected_fan_out() {
        let o = oracle();
        assert_eq!(o.expected(0..1), 2);
        assert_eq!(o.expected(1..2), 1);
        // Publication 2 carries base message 0 again.
        assert_eq!(o.expected(0..4), 6);
    }

    #[test]
    fn complete_delivery_is_clean() {
        let o = oracle();
        let got = [r(0, 0), r(0, 1), r(1, 1)];
        let v = o.verify(&got, 0..2);
        assert_eq!(v.expected, 3);
        assert_eq!(v.delivered, 3);
        assert_eq!(v.failed(), 0);
    }

    #[test]
    fn missing_duplicate_and_wrong_deliveries_all_fail() {
        let o = oracle();
        // (1,1) missing; (0,0) duplicated; sub 2 does not match msg 0.
        let got = [r(0, 0), r(0, 0), r(0, 1), r(0, 2)];
        let v = o.verify(&got, 0..2);
        assert_eq!(v.missing, 1);
        assert_eq!(v.duplicates, 1);
        assert_eq!(v.wrong, 1);
        assert_eq!(v.failed(), 3);
        assert!((v.loss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn foreign_subscription_is_wrong() {
        let o = oracle();
        let v = o.verify(&[r(0, 0), r(0, 1), r(0, Receipt::FOREIGN)], 0..1);
        assert_eq!(v.wrong, 1);
        assert_eq!(v.missing, 0);
    }

    #[test]
    fn receipts_outside_the_range_are_ignored() {
        let o = oracle();
        let v = o.verify(&[r(5, 2)], 0..2);
        assert_eq!(v.wrong, 0);
        assert_eq!(v.missing, 3);
    }

    #[test]
    fn churned_subscription_is_required_only_inside_its_window() {
        let mut o = oracle();
        // Joins before publication 2, leaves before publication 4.
        let i = o.add(sub(9, (0.0, 100.0), (0.0, 100.0)), 2);
        o.close(i, 4);
        assert_eq!(o.expected(0..6), 3 * 3 + 2);
        // Delivered for 2 and 3 (required) and 5 (in flight at the
        // unsubscribe: allowed, not required); 1 never arrived — it was
        // published before the join, so nothing is missing.
        let mut got = vec![r(2, i), r(3, i), r(5, i)];
        for s in 0..6u32 {
            got.push(r(s, 1));
            if s % 2 == 0 {
                got.push(r(s, 0));
            }
        }
        let v = o.verify(&got, 0..6);
        assert_eq!(v.allowed_extra, 1);
        assert_eq!(v.failed(), 0, "{v:?}");
        // Dropping a required one shows as missing.
        got.retain(|x| *x != r(3, i));
        assert_eq!(o.verify(&got, 0..6).missing, 1);
    }

    #[test]
    fn missing_pairs_are_listed() {
        let o = oracle();
        assert_eq!(o.missing(&[r(0, 0)], 0..2, 10), vec![(0, 1), (1, 1)]);
        assert_eq!(o.missing(&[r(0, 0)], 0..2, 1), vec![(0, 1)]);
    }

    #[test]
    fn allowed_extra_must_still_match() {
        let mut o = oracle();
        let i = o.add(sub(9, (70.0, 80.0), (70.0, 80.0)), 4);
        let v = o.verify(&[r(0, 0), r(0, 1), r(0, i)], 0..1);
        assert_eq!(v.wrong, 1);
    }
}
