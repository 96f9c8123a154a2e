//! Host batteries and fleet-level accounting.

use crate::drain::EnergyConfig;
use serde::{Deserialize, Serialize};

/// The battery of a single host.
///
/// ```
/// use pacds_energy::Battery;
/// let mut b = Battery::new(2.0);
/// assert!(!b.drain(1.5));      // still alive
/// assert!(b.drain(1.0));       // this drain kills it (saturates at 0)
/// assert!(b.is_dead());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    energy: f64,
}

impl Battery {
    /// A battery holding `energy` units.
    pub fn new(energy: f64) -> Self {
        assert!(energy.is_finite() && energy >= 0.0);
        Self { energy }
    }

    /// Remaining energy (never negative).
    #[inline]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Whether the host has ceased to function.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.energy <= 0.0
    }

    /// Drains `amount` units, saturating at zero. Returns `true` if this
    /// drain killed the host (alive before, dead after).
    pub fn drain(&mut self, amount: f64) -> bool {
        debug_assert!(amount >= 0.0, "drain must be non-negative");
        let was_alive = !self.is_dead();
        self.energy = (self.energy - amount).max(0.0);
        was_alive && self.is_dead()
    }
}

/// The batteries of all hosts in a network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fleet {
    batteries: Vec<Battery>,
    config: EnergyConfig,
}

impl Fleet {
    /// A fleet of `n` hosts, each at `config.initial` energy.
    pub fn new(n: usize, config: EnergyConfig) -> Self {
        Self {
            batteries: vec![Battery::new(config.initial); n],
            config,
        }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.batteries.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.batteries.is_empty()
    }

    /// The energy configuration.
    pub fn config(&self) -> &EnergyConfig {
        &self.config
    }

    /// Remaining energy of host `v`.
    pub fn energy(&self, v: usize) -> f64 {
        self.batteries[v].energy()
    }

    /// Whether host `v` is dead.
    pub fn is_dead(&self, v: usize) -> bool {
        self.batteries[v].is_dead()
    }

    /// Whether any host is dead (the paper's lifetime stop condition).
    pub fn any_dead(&self) -> bool {
        self.batteries.iter().any(Battery::is_dead)
    }

    /// Number of hosts still alive.
    pub fn alive_count(&self) -> usize {
        self.batteries.iter().filter(|b| !b.is_dead()).count()
    }

    /// Discrete energy levels of every host, as the rules consume them.
    pub fn levels(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.levels_into(&mut out);
        out
    }

    /// [`Fleet::levels`] writing into a caller-provided buffer (cleared and
    /// refilled), so per-interval quantisation reuses one allocation.
    pub fn levels_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(
            self.batteries
                .iter()
                .map(|b| self.config.level_of(b.energy())),
        );
    }

    /// Applies one update interval's drain: hosts with `gateway[v] = true`
    /// lose the model's gateway drain `d`, others lose `d'`. Returns the
    /// indices of hosts that died this interval.
    pub fn drain_interval(&mut self, gateway: &[bool]) -> Vec<usize> {
        assert_eq!(gateway.len(), self.batteries.len());
        let n = self.batteries.len();
        let g_count = gateway.iter().filter(|&&b| b).count();
        let d = self.config.gateway_drain.gateway_drain(n, g_count);
        let dp = self.config.non_gateway_drain;
        let mut died = Vec::new();
        for (v, battery) in self.batteries.iter_mut().enumerate() {
            let amount = if gateway[v] {
                if self.config.additive_gateway_drain {
                    d + dp
                } else {
                    d
                }
            } else {
                dp
            };
            if battery.drain(amount) {
                died.push(v);
            }
        }
        died
    }

    /// Like [`Fleet::drain_interval`], but hosts flagged `off` pay nothing
    /// this interval (a switched-off radio saves its battery — the paper's
    /// motivation for hosts disconnecting). The gateway drain is computed
    /// from the gateway count as usual; `gateway[v] && off[v]` is rejected.
    pub fn drain_interval_with_off(&mut self, gateway: &[bool], off: &[bool]) -> Vec<usize> {
        assert_eq!(gateway.len(), self.batteries.len());
        assert_eq!(off.len(), self.batteries.len());
        assert!(
            gateway.iter().zip(off).all(|(&g, &o)| !(g && o)),
            "an off host cannot serve as a gateway"
        );
        let n = self.batteries.len();
        let g_count = gateway.iter().filter(|&&b| b).count();
        let d = self.config.gateway_drain.gateway_drain(n, g_count);
        let dp = self.config.non_gateway_drain;
        let additive = self.config.additive_gateway_drain;
        let mut died = Vec::new();
        for (v, battery) in self.batteries.iter_mut().enumerate() {
            let amount = if off[v] {
                0.0
            } else if gateway[v] {
                if additive {
                    d + dp
                } else {
                    d
                }
            } else {
                dp
            };
            if battery.drain(amount) {
                died.push(v);
            }
        }
        died
    }

    /// Applies an arbitrary per-host drain (e.g. measured forwarding load).
    /// Returns the indices of hosts that died.
    pub fn drain_each<F: Fn(usize) -> f64>(&mut self, amount: F) -> Vec<usize> {
        let mut died = Vec::new();
        for (v, battery) in self.batteries.iter_mut().enumerate() {
            if battery.drain(amount(v)) {
                died.push(v);
            }
        }
        died
    }

    /// Total energy left in the fleet.
    pub fn total_energy(&self) -> f64 {
        self.batteries.iter().map(Battery::energy).sum()
    }

    /// Minimum remaining energy across hosts (`None` for an empty fleet).
    pub fn min_energy(&self) -> Option<f64> {
        self.batteries
            .iter()
            .map(Battery::energy)
            .min_by(|a, b| a.total_cmp(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drain::DrainModel;

    fn cfg(model: DrainModel) -> EnergyConfig {
        EnergyConfig::paper(model)
    }

    #[test]
    fn battery_drains_and_saturates() {
        let mut b = Battery::new(3.0);
        assert!(!b.drain(1.0));
        assert_eq!(b.energy(), 2.0);
        assert!(b.drain(5.0)); // kills it
        assert_eq!(b.energy(), 0.0);
        assert!(b.is_dead());
        assert!(!b.drain(1.0)); // already dead: not a new death
    }

    #[test]
    #[should_panic]
    fn negative_battery_rejected() {
        Battery::new(-1.0);
    }

    #[test]
    fn fleet_starts_full_and_alive() {
        let f = Fleet::new(10, cfg(DrainModel::LinearInN));
        assert_eq!(f.len(), 10);
        assert!(!f.any_dead());
        assert_eq!(f.alive_count(), 10);
        assert_eq!(f.total_energy(), 1000.0);
        assert_eq!(f.levels(), vec![10u64; 10]); // 100 energy / quantum 10
    }

    #[test]
    fn drain_interval_applies_model2() {
        // n = 4, 2 gateways: d = 4/2 = 2; d' = 1.
        let mut f = Fleet::new(4, cfg(DrainModel::LinearInN));
        let died = f.drain_interval(&[true, true, false, false]);
        assert!(died.is_empty());
        assert_eq!(f.energy(0), 98.0);
        assert_eq!(f.energy(1), 98.0);
        assert_eq!(f.energy(2), 99.0);
        assert_eq!(f.energy(3), 99.0);
    }

    #[test]
    fn gateway_lifetime_under_model2() {
        // Static roles: gateways die at interval 50 (100 / 2).
        let mut f = Fleet::new(4, cfg(DrainModel::LinearInN));
        let roles = [true, true, false, false];
        let mut intervals = 0;
        while !f.any_dead() {
            let died = f.drain_interval(&roles);
            intervals += 1;
            if !died.is_empty() {
                assert_eq!(died, vec![0, 1]);
            }
            assert!(intervals <= 1000, "runaway loop");
        }
        assert_eq!(intervals, 50);
        assert_eq!(f.alive_count(), 2);
    }

    #[test]
    fn non_gateways_die_at_initial_over_dprime() {
        let mut f = Fleet::new(3, cfg(DrainModel::ConstantTotal));
        // All gateways: d = 2/3 < 1, so gateways outlive the d'=1 case.
        let mut intervals = 0;
        while !f.any_dead() {
            f.drain_interval(&[true, true, true]);
            intervals += 1;
            assert!(intervals <= 1000);
        }
        assert_eq!(intervals, 150); // 100 / (2/3)
    }

    #[test]
    fn levels_track_quantised_energy() {
        let mut f = Fleet::new(
            2,
            EnergyConfig {
                quantum: 1.0,
                ..cfg(DrainModel::LinearInN)
            },
        );
        // d = 2/1 = 2 for the single gateway.
        f.drain_interval(&[true, false]);
        assert_eq!(f.levels(), vec![98, 99]);
    }

    #[test]
    fn off_hosts_pay_nothing() {
        let mut f = Fleet::new(4, cfg(DrainModel::LinearInN));
        // 1 gateway among 4 hosts: d = 4.
        let died =
            f.drain_interval_with_off(&[true, false, false, false], &[false, false, true, true]);
        assert!(died.is_empty());
        assert_eq!(f.energy(0), 96.0);
        assert_eq!(f.energy(1), 99.0);
        assert_eq!(f.energy(2), 100.0);
        assert_eq!(f.energy(3), 100.0);
    }

    #[test]
    #[should_panic]
    fn off_gateway_is_rejected() {
        let mut f = Fleet::new(2, cfg(DrainModel::LinearInN));
        f.drain_interval_with_off(&[true, false], &[true, false]);
    }

    #[test]
    fn min_energy_and_empty_fleet() {
        let f = Fleet::new(0, cfg(DrainModel::LinearInN));
        assert!(f.is_empty());
        assert_eq!(f.min_energy(), None);
        let mut f = Fleet::new(3, cfg(DrainModel::LinearInN));
        f.drain_interval(&[true, false, false]); // d = 3
        assert_eq!(f.min_energy(), Some(97.0));
    }
}
