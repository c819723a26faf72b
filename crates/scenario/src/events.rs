//! Scenario timelines: workload events (job arrivals) and platform events
//! (churn, capacity drift, connection-cap changes).
//!
//! A [`Scenario`] is a fully materialised, serialisable timeline — either
//! generated from a seeded [`ArrivalProcess`] (plus optionally
//! [`drift_events`] for platform dynamics) or loaded from a JSON trace file
//! ([`Scenario::from_json`]). The scenario engine replays it against a
//! [`dls_core::ProblemInstance`] under a pluggable rescheduling policy.

use dls_core::adaptive::DriftConfig;
use dls_platform::Platform;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One divisible-load job: `size` load units of the application homed at
/// cluster `origin`, arriving at `arrival`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Arrival time.
    pub arrival: f64,
    /// Home cluster of the job's application (`C^k`).
    pub origin: u32,
    /// Load units to process.
    pub size: f64,
    /// Relative worth (reserved for payoff-weighted metrics; `1.0` for
    /// generated workloads).
    pub weight: f64,
}

/// What a platform event does when it fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlatformChange {
    /// Set a cluster's cumulated compute speed `s_k`.
    SetSpeed {
        /// Target cluster.
        cluster: u32,
        /// New speed.
        speed: f64,
    },
    /// Set a cluster's local-link capacity `g_k`.
    SetLocalBw {
        /// Target cluster.
        cluster: u32,
        /// New capacity.
        bw: f64,
    },
    /// Set a backbone link's per-connection bandwidth `bw(l)`.
    ///
    /// Connection-oriented semantics: connections already open keep the
    /// bandwidth they were granted at open time until their transfer
    /// completes (the §2 model grants `bw(l)` per connection, not per
    /// instant); the change applies to flows spawned afterwards.
    SetBackboneBw {
        /// Target backbone link index.
        link: u32,
        /// New per-connection bandwidth.
        bw: f64,
    },
    /// Set a backbone link's connection cap `max-connect(l)`.
    SetMaxConnections {
        /// Target backbone link index.
        link: u32,
        /// New connection cap.
        max: u32,
    },
    /// A cluster churns out: speed and local link drop to zero, in-flight
    /// transfers touching it are retired (their payload re-queued at the
    /// source application).
    ClusterLeave {
        /// Departing cluster.
        cluster: u32,
    },
    /// A churned-out cluster rejoins with its original speed and local
    /// link.
    ClusterJoin {
        /// Returning cluster.
        cluster: u32,
    },
    /// A cluster crashes: unlike the graceful [`PlatformChange::ClusterLeave`],
    /// in-flight transfers touching it and compute queued on it are *lost*
    /// — transfer progress and partial compute results are discarded, the
    /// unfinished load returns to the pending pool, and it is re-dispatched
    /// on the next resolve. A later [`PlatformChange::ClusterJoin`] brings
    /// the cluster back (empty-handed).
    ClusterCrash {
        /// Crashing cluster.
        cluster: u32,
    },
    /// A backbone partition: clusters listed in different `groups` cannot
    /// exchange data until `until`. Flows crossing the cut stall at zero
    /// rate (they are *not* killed — progress resumes at heal), and no new
    /// cross-cut flow is spawned while the partition holds. Clusters not
    /// listed in any group are unaffected.
    BackbonePartition {
        /// The partition's sides (disjoint, non-empty cluster-index sets;
        /// at least two).
        groups: Vec<Vec<u32>>,
        /// Heal time (absolute; must not precede the event).
        until: f64,
    },
    /// A straggler window: the cluster's compute speed and local link are
    /// multiplied by `factor` (in `(0, 1]` for degradation) until `until`,
    /// then restored to their drift-tracked values.
    Straggler {
        /// Degraded cluster.
        cluster: u32,
        /// Multiplicative speed/bandwidth factor.
        factor: f64,
        /// Restore time (absolute; must not precede the event).
        until: f64,
    },
}

/// A timed platform event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformEvent {
    /// When the event fires.
    pub time: f64,
    /// What it does.
    pub change: PlatformChange,
}

/// A complete scenario: the replayable timeline the engine executes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable name (catalog entry or trace file stem).
    pub name: String,
    /// Control-period length: arrivals/platform events take effect and the
    /// policy runs at multiples of this.
    pub period: f64,
    /// Jobs, sorted by arrival time.
    pub jobs: Vec<JobSpec>,
    /// Platform events, sorted by time.
    pub platform_events: Vec<PlatformEvent>,
}

impl Scenario {
    /// Serialises the scenario to pretty JSON (the trace-file format).
    pub fn to_json(&self) -> String {
        match serde_json::to_string_pretty(self) {
            Ok(json) => json,
            // The serialiser writes into a `String` and has no error path.
            Err(e) => unreachable!("scenario serialisation failed: {e}"),
        }
    }

    /// Parses a scenario from JSON and validates it against a platform.
    pub fn from_json(s: &str, platform: &Platform) -> Result<Self, String> {
        let mut sc: Scenario = serde_json::from_str(s).map_err(|e| e.to_string())?;
        sc.normalise();
        sc.validate(platform)?;
        Ok(sc)
    }

    /// Sorts jobs and platform events by time (the engine requires it).
    pub fn normalise(&mut self) {
        self.jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        self.platform_events
            .sort_by(|a, b| a.time.total_cmp(&b.time));
    }

    /// Checks indices and numeric sanity against a platform.
    pub fn validate(&self, platform: &Platform) -> Result<(), String> {
        if !(self.period.is_finite() && self.period > 0.0) {
            return Err(format!("period must be positive, got {}", self.period));
        }
        let k = platform.num_clusters() as u32;
        let links = platform.links.len() as u32;
        for (i, j) in self.jobs.iter().enumerate() {
            if j.origin >= k {
                return Err(format!(
                    "job {i} originates at unknown cluster {}",
                    j.origin
                ));
            }
            if !(j.size.is_finite() && j.size > 0.0) {
                return Err(format!("job {i} has a non-positive size {}", j.size));
            }
            if !(j.arrival.is_finite() && j.arrival >= 0.0) {
                return Err(format!("job {i} has a bad arrival time {}", j.arrival));
            }
        }
        for (i, e) in self.platform_events.iter().enumerate() {
            if !(e.time.is_finite() && e.time >= 0.0) {
                return Err(format!("platform event {i} has a bad time {}", e.time));
            }
            let (cluster, link, value) = match &e.change {
                PlatformChange::SetSpeed { cluster, speed } => (Some(*cluster), None, *speed),
                PlatformChange::SetLocalBw { cluster, bw } => (Some(*cluster), None, *bw),
                PlatformChange::SetBackboneBw { link, bw } => (None, Some(*link), *bw),
                PlatformChange::SetMaxConnections { link, max } => (None, Some(*link), *max as f64),
                PlatformChange::ClusterLeave { cluster }
                | PlatformChange::ClusterJoin { cluster }
                | PlatformChange::ClusterCrash { cluster } => (Some(*cluster), None, 0.0),
                PlatformChange::BackbonePartition { groups, until } => {
                    if groups.len() < 2 {
                        return Err(format!(
                            "platform event {i} partitions into fewer than two groups"
                        ));
                    }
                    let mut seen = std::collections::HashSet::new();
                    for g in groups {
                        if g.is_empty() {
                            return Err(format!("platform event {i} has an empty partition group"));
                        }
                        for &c in g {
                            if c >= k {
                                return Err(format!(
                                    "platform event {i} partitions unknown cluster {c}"
                                ));
                            }
                            if !seen.insert(c) {
                                return Err(format!(
                                    "platform event {i} lists cluster {c} in two partition groups"
                                ));
                            }
                        }
                    }
                    if !(until.is_finite() && *until >= e.time) {
                        return Err(format!(
                            "platform event {i} has a bad partition heal time {until}"
                        ));
                    }
                    (None, None, 0.0)
                }
                PlatformChange::Straggler {
                    cluster,
                    factor,
                    until,
                } => {
                    if !(factor.is_finite() && *factor > 0.0) {
                        return Err(format!(
                            "platform event {i} has a bad straggler factor {factor}"
                        ));
                    }
                    if !(until.is_finite() && *until >= e.time) {
                        return Err(format!(
                            "platform event {i} has a bad straggler end time {until}"
                        ));
                    }
                    (Some(*cluster), None, 0.0)
                }
            };
            if let Some(c) = cluster {
                if c >= k {
                    return Err(format!("platform event {i} targets unknown cluster {c}"));
                }
            }
            if let Some(l) = link {
                if l >= links {
                    return Err(format!("platform event {i} targets unknown link {l}"));
                }
            }
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!("platform event {i} carries a bad value {value}"));
            }
        }
        Ok(())
    }

    /// Total offered work, `Σ size`.
    pub fn offered_work(&self) -> f64 {
        self.jobs.iter().map(|j| j.size).sum()
    }

    /// Latest job arrival (0 for an empty workload).
    pub fn last_arrival(&self) -> f64 {
        self.jobs.iter().fold(0.0f64, |a, j| a.max(j.arrival))
    }
}

/// Seeded stochastic workload generators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` jobs per time unit, sizes uniform in
    /// `[0.5, 1.5] · mean_size`, origins uniform over clusters.
    Poisson {
        /// Mean arrivals per time unit.
        rate: f64,
        /// Mean job size (load units).
        mean_size: f64,
    },
    /// Bursty on/off arrivals: Poisson at `rate` during on-windows of
    /// length `on_len`, silent during off-windows of length `off_len`.
    OnOff {
        /// Mean arrivals per time unit while on.
        rate: f64,
        /// Mean job size (load units).
        mean_size: f64,
        /// On-window length.
        on_len: f64,
        /// Off-window length.
        off_len: f64,
    },
}

impl ArrivalProcess {
    /// Generates the jobs arriving in `[0, horizon)` for a `k`-cluster
    /// platform, deterministically from `seed`.
    pub fn generate(&self, horizon: f64, k: usize, seed: u64) -> Vec<JobSpec> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut jobs = Vec::new();
        let (rate, mean_size) = match *self {
            ArrivalProcess::Poisson { rate, mean_size } => (rate, mean_size),
            ArrivalProcess::OnOff {
                rate, mean_size, ..
            } => (rate, mean_size),
        };
        if rate <= 0.0 || mean_size <= 0.0 {
            return jobs;
        }
        let mut t = 0.0f64;
        loop {
            // Exponential inter-arrival via inverse transform.
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -u.ln() / rate;
            if t >= horizon {
                break;
            }
            let arrival = match *self {
                ArrivalProcess::Poisson { .. } => t,
                ArrivalProcess::OnOff {
                    on_len, off_len, ..
                } => {
                    // Thin the homogeneous stream down to the on-windows by
                    // folding time into the on/off cycle: arrivals landing
                    // in an off-window are dropped.
                    let cycle = on_len + off_len;
                    if cycle <= 0.0 || t.rem_euclid(cycle) < on_len {
                        t
                    } else {
                        continue;
                    }
                }
            };
            jobs.push(JobSpec {
                arrival,
                origin: rng.gen_range(0..k as u32),
                size: mean_size * rng.gen_range(0.5..1.5),
                weight: 1.0,
            });
        }
        jobs
    }
}

/// Lowers the multiplicative random-walk drift of
/// [`dls_core::adaptive::DriftConfig`] into an explicit platform-event
/// timeline: one epoch per control period, each epoch multiplying every
/// cluster speed, local link, and backbone bandwidth by an independent
/// uniform draw in `1 ± spread`, clamped to `[floor, ceil]` times the
/// capacity's original value, and emitted as replayable [`PlatformEvent`]s
/// for the online engine to absorb.
pub fn drift_events(platform: &Platform, cfg: &DriftConfig, period: f64) -> Vec<PlatformEvent> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut events = Vec::new();
    let mut speeds: Vec<f64> = platform.clusters.iter().map(|c| c.speed).collect();
    let mut local: Vec<f64> = platform.clusters.iter().map(|c| c.local_bw).collect();
    let mut backbone: Vec<f64> = platform.links.iter().map(|l| l.bw_per_connection).collect();
    let originals = (speeds.clone(), local.clone(), backbone.clone());

    let drift = |rng: &mut ChaCha8Rng, value: f64, spread: f64, orig: f64| -> f64 {
        let next = if spread <= 0.0 {
            value
        } else {
            value * rng.gen_range(1.0 - spread..1.0 + spread)
        };
        next.clamp(orig * cfg.floor_fraction, orig * cfg.ceil_fraction)
    };

    for epoch in 1..cfg.epochs.max(1) {
        let time = epoch as f64 * period;
        for (c, speed) in speeds.iter_mut().enumerate() {
            *speed = drift(&mut rng, *speed, cfg.speed_drift, originals.0[c]);
            events.push(PlatformEvent {
                time,
                change: PlatformChange::SetSpeed {
                    cluster: c as u32,
                    speed: *speed,
                },
            });
        }
        for (c, bw) in local.iter_mut().enumerate() {
            *bw = drift(&mut rng, *bw, cfg.local_bw_drift, originals.1[c]);
            events.push(PlatformEvent {
                time,
                change: PlatformChange::SetLocalBw {
                    cluster: c as u32,
                    bw: *bw,
                },
            });
        }
        for (l, bw) in backbone.iter_mut().enumerate() {
            *bw = drift(&mut rng, *bw, cfg.backbone_bw_drift, originals.2[l]);
            events.push(PlatformEvent {
                time,
                change: PlatformChange::SetBackboneBw {
                    link: l as u32,
                    bw: *bw,
                },
            });
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_platform::PlatformBuilder;

    fn platform() -> Platform {
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 20.0);
        let c1 = b.add_cluster(50.0, 30.0);
        b.connect_clusters(c0, c1, 10.0, 2);
        b.build().unwrap()
    }

    #[test]
    fn poisson_generation_is_deterministic_and_in_range() {
        let p = ArrivalProcess::Poisson {
            rate: 2.0,
            mean_size: 10.0,
        };
        let a = p.generate(50.0, 4, 7);
        let b = p.generate(50.0, 4, 7);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for j in &a {
            assert!(j.arrival >= 0.0 && j.arrival < 50.0);
            assert!(j.origin < 4);
            assert!(j.size >= 5.0 && j.size <= 15.0);
        }
        // Expect roughly rate · horizon arrivals.
        assert!(a.len() > 50 && a.len() < 200, "{}", a.len());
    }

    #[test]
    fn onoff_keeps_only_on_window_arrivals() {
        let p = ArrivalProcess::OnOff {
            rate: 5.0,
            mean_size: 4.0,
            on_len: 2.0,
            off_len: 8.0,
        };
        let jobs = p.generate(100.0, 3, 1);
        assert!(!jobs.is_empty());
        for j in &jobs {
            assert!(
                j.arrival.rem_euclid(10.0) < 2.0,
                "off-window arrival {}",
                j.arrival
            );
        }
    }

    #[test]
    fn scenario_json_round_trip() {
        let p = platform();
        let mut sc = Scenario {
            name: "t".into(),
            period: 1.0,
            jobs: vec![JobSpec {
                arrival: 0.5,
                origin: 1,
                size: 12.0,
                weight: 1.0,
            }],
            platform_events: vec![PlatformEvent {
                time: 2.0,
                change: PlatformChange::ClusterLeave { cluster: 0 },
            }],
        };
        sc.normalise();
        let json = sc.to_json();
        let back = Scenario::from_json(&json, &p).unwrap();
        assert_eq!(back.jobs, sc.jobs);
        assert_eq!(back.platform_events, sc.platform_events);
    }

    #[test]
    fn validation_rejects_bad_targets() {
        let p = platform();
        let sc = Scenario {
            name: "bad".into(),
            period: 1.0,
            jobs: vec![JobSpec {
                arrival: 0.0,
                origin: 9,
                size: 1.0,
                weight: 1.0,
            }],
            platform_events: vec![],
        };
        assert!(sc.validate(&p).is_err());
        let sc = Scenario {
            name: "bad".into(),
            period: 0.0,
            jobs: vec![],
            platform_events: vec![],
        };
        assert!(sc.validate(&p).is_err());
    }

    #[test]
    fn drift_events_cover_every_capacity_each_epoch() {
        let p = platform();
        let cfg = DriftConfig {
            epochs: 4,
            seed: 3,
            ..DriftConfig::default()
        };
        let events = drift_events(&p, &cfg, 2.0);
        // 3 drifting epochs × (2 speeds + 2 locals + 1 backbone).
        assert_eq!(events.len(), 3 * 5);
        for e in &events {
            assert!(e.time >= 2.0 - 1e-12);
            let v = match &e.change {
                PlatformChange::SetSpeed { speed, .. } => *speed,
                PlatformChange::SetLocalBw { bw, .. } => *bw,
                PlatformChange::SetBackboneBw { bw, .. } => *bw,
                _ => panic!("unexpected event kind"),
            };
            assert!(v > 0.0);
        }
        // Deterministic.
        assert_eq!(events, drift_events(&p, &cfg, 2.0));
    }
}
