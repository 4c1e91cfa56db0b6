//! Weighted arbitration classes.
//!
//! A [`TenantPolicy`] lists arbitration classes, each with a
//! weighted-round-robin share ([`TenantClass::weight`]) and a starvation
//! bound ([`TenantClass::starvation_bound`]); the last class is the
//! background one. [`TenantArbiter`] picks one winner per slot among the
//! classes that have a candidate, and two callers use it:
//!
//! * [`IoScheduler`](crate::IoScheduler) runs one arbiter per chip over the
//!   fixed [`TenantPolicy::two_class`] policy — one host class that always
//!   wins contended slots, and a zero-weight GC class whose starvation bound
//!   forces it through (contention = overlapping plane masks);
//! * the experiment harness ranks tenants for weighted admission at the FTL
//!   frontend with one weighted class per tenant (contention = the shared
//!   translation engine, i.e. always).
//!
//! [`TenantArbiter`] is deliberately queue-agnostic: callers describe which
//! classes have an eligible candidate and which candidates contend for the
//! same resource, and the arbiter picks a winner while tracking bypass
//! counters and round-robin credits.

/// One arbitration class's share of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantClass {
    /// Weighted-round-robin share among *foreground* classes (weight > 0).
    /// A zero-weight class is *background*: it only runs when no foreground
    /// class has an eligible candidate, or when its starvation bound forces
    /// it through.
    pub weight: u32,
    /// How many times in a row this class's candidate may lose a contended
    /// arbitration before it is forced through.
    pub starvation_bound: u32,
}

impl TenantClass {
    /// A foreground class with the given weight and no starvation forcing.
    pub fn weighted(weight: u32) -> Self {
        TenantClass {
            weight,
            starvation_bound: u32::MAX,
        }
    }

    /// A background class (weight 0) forced through after `bound` bypasses.
    pub fn background(bound: u32) -> Self {
        TenantClass {
            weight: 0,
            starvation_bound: bound,
        }
    }
}

/// Arbitration classes: the foreground (host or tenant) classes first, the
/// background (GC) class last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantPolicy {
    classes: Vec<TenantClass>,
}

impl TenantPolicy {
    /// Creates a policy from explicit classes. The **last** class is the GC
    /// class; the ones before it serve host traffic.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two classes (at least one host class plus the
    /// GC class).
    pub fn new(classes: Vec<TenantClass>) -> Self {
        assert!(
            classes.len() >= 2,
            "a tenant policy needs at least one host class and the GC class"
        );
        TenantPolicy { classes }
    }

    /// The I/O scheduler's policy: one host class that wins every contended
    /// slot, and a background GC class forced through after
    /// `gc_starvation_bound` bypasses.
    pub fn two_class(gc_starvation_bound: u32) -> Self {
        TenantPolicy::new(vec![
            TenantClass::weighted(1),
            TenantClass::background(gc_starvation_bound),
        ])
    }

    /// All classes, host classes first, the GC class last.
    pub fn classes(&self) -> &[TenantClass] {
        &self.classes
    }

    /// Number of classes (host classes plus the GC class).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Index of the GC class (always the last).
    pub fn gc_class(&self) -> usize {
        self.classes.len() - 1
    }
}

/// The outcome of one arbitration slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arbitration {
    /// The class whose candidate issues.
    pub winner: usize,
    /// Whether the winner was forced through by its starvation bound rather
    /// than chosen by weighted round-robin.
    pub forced: bool,
}

#[derive(Debug, Clone)]
struct ClassArb {
    weight: u32,
    bound: u32,
    /// Consecutive times this class's candidate lost a contended slot.
    bypassed: u32,
    /// Remaining weighted-round-robin credit.
    credit: u32,
}

/// Stateful weighted arbitration over the classes of a [`TenantPolicy`].
///
/// Decision rule per slot, given which classes are *present* (have an
/// eligible candidate) and which pairs of candidates *contend*:
///
/// 1. Among present foreground classes (weight > 0), weighted round-robin
///    picks the tentative winner: the class with the most remaining credit
///    (ties to the lowest index); credits refill to the weights when no
///    present foreground class has credit left. With no present foreground
///    class, the first present background class is tentative.
/// 2. Any *other* present class whose bypass counter has reached its
///    starvation bound and whose candidate contends with the tentative
///    winner preempts it (lowest index first) — the slot is `forced`.
/// 3. The winner's bypass counter resets; every other present class whose
///    candidate contends with the winner accrues one bypass.
///
/// Non-contending losers are *not* bypassed: their candidates issue in the
/// same simulated instant on the caller's next slot (the scheduler's
/// plane-disjoint fast path), so counting a yield would be wrong.
#[derive(Debug, Clone)]
pub struct TenantArbiter {
    classes: Vec<ClassArb>,
}

impl TenantArbiter {
    /// Creates an arbiter with every class's credit at its weight and all
    /// bypass counters at zero.
    pub fn new(policy: &TenantPolicy) -> Self {
        TenantArbiter {
            classes: policy
                .classes()
                .iter()
                .map(|c| ClassArb {
                    weight: c.weight,
                    bound: c.starvation_bound,
                    bypassed: 0,
                    credit: c.weight,
                })
                .collect(),
        }
    }

    /// Number of classes the arbiter tracks.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// A class's current consecutive-bypass count (test/diagnostic hook).
    pub fn bypassed(&self, class: usize) -> u32 {
        self.classes[class].bypassed
    }

    /// Arbitrates one slot. `present(c)` reports whether class `c` has an
    /// eligible candidate; `contends(a, b)` whether classes `a` and `b`'s
    /// candidates compete for the same resource. Indices of classes that
    /// yielded (lost a contended slot) are appended to `yielded`, which is
    /// cleared first. Returns `None` when no class is present.
    pub fn decide(
        &mut self,
        present: impl Fn(usize) -> bool,
        contends: impl Fn(usize, usize) -> bool,
        yielded: &mut Vec<usize>,
    ) -> Option<Arbitration> {
        yielded.clear();
        let n = self.classes.len();
        if !(0..n).any(&present) {
            return None;
        }
        let foreground = |c: &ClassArb, i: usize| c.weight > 0 && present(i);

        // Weighted round-robin among present foreground classes; refill when
        // none of them has credit left.
        let pick_credit = |classes: &[ClassArb]| -> Option<usize> {
            classes
                .iter()
                .enumerate()
                .filter(|(i, c)| foreground(c, *i) && c.credit > 0)
                .max_by(|(ai, a), (bi, b)| a.credit.cmp(&b.credit).then(bi.cmp(ai)))
                .map(|(i, _)| i)
        };
        let mut tentative = pick_credit(&self.classes);
        if tentative.is_none() && (0..n).any(|i| foreground(&self.classes[i], i)) {
            for c in &mut self.classes {
                c.credit = c.weight;
            }
            tentative = pick_credit(&self.classes);
        }
        let tentative = match tentative {
            Some(t) => t,
            // Only background classes are present: first one wins.
            None => (0..n).find(|&i| present(i)).expect("some class is present"),
        };

        // Starvation preemption: the lowest-indexed other present class at
        // its bound whose candidate contends with the tentative winner.
        let starved = (0..n).find(|&c| {
            c != tentative
                && present(c)
                && self.classes[c].bypassed >= self.classes[c].bound
                && contends(c, tentative)
        });
        let (winner, forced) = match starved {
            Some(c) => (c, true),
            None => (tentative, false),
        };

        for c in 0..n {
            if c != winner && present(c) && contends(c, winner) {
                self.classes[c].bypassed += 1;
                yielded.push(c);
            }
        }
        self.classes[winner].bypassed = 0;
        if !forced && self.classes[winner].weight > 0 {
            self.classes[winner].credit = self.classes[winner].credit.saturating_sub(1);
        }
        Some(Arbitration { winner, forced })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always(_: usize, _: usize) -> bool {
        true
    }

    #[test]
    fn two_class_policy_shapes() {
        let p = TenantPolicy::two_class(4);
        assert_eq!(p.num_classes(), 2);
        assert_eq!(p.gc_class(), 1);
        assert_eq!(p.classes()[0], TenantClass::weighted(1));
        assert_eq!(p.classes()[1], TenantClass::background(4));
    }

    #[test]
    #[should_panic(expected = "at least one host class")]
    fn single_class_policy_rejected() {
        TenantPolicy::new(vec![TenantClass::weighted(1)]);
    }

    #[test]
    fn two_class_host_always_beats_gc_until_bound() {
        // The degenerate config's contended sequence: host wins `bound`
        // slots (GC accrues bypasses), then GC is forced through.
        let mut arb = TenantArbiter::new(&TenantPolicy::two_class(2));
        let mut yielded = Vec::new();
        let both = |c: usize| c < 2;
        for _ in 0..2 {
            let a = arb.decide(both, always, &mut yielded).unwrap();
            assert_eq!((a.winner, a.forced), (0, false));
            assert_eq!(yielded, vec![1]);
        }
        let a = arb.decide(both, always, &mut yielded).unwrap();
        assert_eq!((a.winner, a.forced), (1, true), "GC forced at the bound");
        assert_eq!(yielded, vec![0], "the host class yields the forced slot");
        // The forced slot reset GC's counter: host wins again.
        let a = arb.decide(both, always, &mut yielded).unwrap();
        assert_eq!((a.winner, a.forced), (0, false));
    }

    #[test]
    fn uncontested_background_win_is_not_forced() {
        let mut arb = TenantArbiter::new(&TenantPolicy::two_class(4));
        let mut yielded = Vec::new();
        let a = arb.decide(|c| c == 1, always, &mut yielded).unwrap();
        assert_eq!((a.winner, a.forced), (1, false));
        assert!(yielded.is_empty());
    }

    #[test]
    fn lone_foreground_wins_spend_and_refill_credit() {
        // A (weight 2) alone on two slots spends its credit, so the next
        // contended slot goes to B (weight 1); A alone again finds nobody
        // with credit left and triggers the refill of *every* class.
        let policy = TenantPolicy::new(vec![
            TenantClass::weighted(2),
            TenantClass::weighted(1),
            TenantClass::background(u32::MAX),
        ]);
        let mut arb = TenantArbiter::new(&policy);
        let mut yielded = Vec::new();
        let mut slot = |arb: &mut TenantArbiter, present: &[usize]| {
            arb.decide(|c| present.contains(&c), always, &mut yielded)
                .map(|a| (a.winner, a.forced))
        };
        assert_eq!(slot(&mut arb, &[0]), Some((0, false)));
        assert_eq!(slot(&mut arb, &[0]), Some((0, false)));
        assert_eq!(
            slot(&mut arb, &[0, 1]),
            Some((1, false)),
            "A is out of credit"
        );
        assert_eq!(slot(&mut arb, &[0]), Some((0, false)), "refills A and B");
        assert_eq!(
            slot(&mut arb, &[0, 1]),
            Some((0, false)),
            "A:1 ties B:1, lowest wins"
        );
        assert_eq!(slot(&mut arb, &[0, 1]), Some((1, false)));
        assert_eq!(slot(&mut arb, &[2]), Some((2, false)), "background alone");
        assert_eq!(slot(&mut arb, &[]), None);
    }

    #[test]
    fn disjoint_losers_are_not_bypassed() {
        // contends == false models plane-disjoint candidates: the loser
        // issues in the same instant on the next slot, so no yield accrues.
        let mut arb = TenantArbiter::new(&TenantPolicy::two_class(1));
        let mut yielded = Vec::new();
        for _ in 0..5 {
            let a = arb.decide(|c| c < 2, |_, _| false, &mut yielded).unwrap();
            assert_eq!((a.winner, a.forced), (0, false));
            assert!(yielded.is_empty());
            assert_eq!(arb.bypassed(1), 0);
        }
    }

    #[test]
    fn weighted_round_robin_honours_weights() {
        // Classes A (weight 2) and B (weight 1) always present and
        // contending: the slot pattern is A A B repeating.
        let policy = TenantPolicy::new(vec![
            TenantClass::weighted(2),
            TenantClass::weighted(1),
            TenantClass::background(u32::MAX),
        ]);
        let mut arb = TenantArbiter::new(&policy);
        let mut yielded = Vec::new();
        let winners: Vec<usize> = (0..9)
            .map(|_| arb.decide(|c| c < 2, always, &mut yielded).unwrap().winner)
            .collect();
        assert_eq!(winners, vec![0, 0, 1, 0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn starved_foreground_class_preempts() {
        // A 1000:1 weight split starves B for long stretches; a starvation
        // bound of 3 caps the streak.
        let policy = TenantPolicy::new(vec![
            TenantClass {
                weight: 1000,
                starvation_bound: u32::MAX,
            },
            TenantClass {
                weight: 1,
                starvation_bound: 3,
            },
            TenantClass::background(u32::MAX),
        ]);
        let mut arb = TenantArbiter::new(&policy);
        let mut yielded = Vec::new();
        let mut streak = 0u32;
        let mut max_streak = 0u32;
        for _ in 0..100 {
            let a = arb.decide(|c| c < 2, always, &mut yielded).unwrap();
            if a.winner == 0 {
                streak += 1;
                max_streak = max_streak.max(streak);
            } else {
                streak = 0;
            }
        }
        assert!(
            max_streak <= 3,
            "class B must never lose more than its bound in a row (saw {max_streak})"
        );
    }

    #[test]
    fn absent_classes_do_not_accrue_bypasses() {
        let mut arb = TenantArbiter::new(&TenantPolicy::two_class(2));
        let mut yielded = Vec::new();
        for _ in 0..10 {
            let a = arb.decide(|c| c == 0, always, &mut yielded).unwrap();
            assert_eq!((a.winner, a.forced), (0, false));
        }
        assert_eq!(arb.bypassed(1), 0, "an absent GC class never yields");
        assert!(arb.decide(|_| false, always, &mut yielded).is_none());
    }
}
