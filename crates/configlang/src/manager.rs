//! The troupe configuration manager (§7.5.3).
//!
//! A programming-in-the-large tool: given troupe specifications and a
//! database of machine attributes, it decides *where* troupe members run,
//! both at instantiation and when reconfiguring after partial failures or
//! specification changes. The actual process creation and binding-agent
//! registration are delegated to a placement callback, keeping the
//! manager independent of any particular runtime.

use crate::ast::TroupeSpec;
use crate::machine::Universe;
use crate::parser::{parse, ParseError};
use crate::solve::extend_troupe;
use std::collections::BTreeMap;

/// A managed troupe's bookkeeping.
#[derive(Clone, Debug)]
pub struct ManagedTroupe {
    /// The interface name.
    pub name: String,
    /// Its specification.
    pub spec: TroupeSpec,
    /// Machine ids of the current members.
    pub placement: Vec<u32>,
}

/// What the manager asks its environment to do.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Start a member of `name` on this machine.
    Start {
        /// The troupe.
        name: String,
        /// Where.
        machine: u32,
    },
    /// Stop the member of `name` on this machine (no longer needed).
    Stop {
        /// The troupe.
        name: String,
        /// Where.
        machine: u32,
    },
}

/// Errors from configuration operations.
#[derive(Clone, PartialEq, Debug)]
pub enum ConfigError {
    /// The specification source did not parse.
    Parse(ParseError),
    /// No placement satisfies the specification.
    Unsatisfiable(String),
    /// Unknown troupe name.
    Unknown(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Parse(e) => write!(f, "{e}"),
            ConfigError::Unsatisfiable(n) => write!(f, "no placement satisfies troupe {n:?}"),
            ConfigError::Unknown(n) => write!(f, "no managed troupe named {n:?}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ParseError> for ConfigError {
    fn from(e: ParseError) -> ConfigError {
        ConfigError::Parse(e)
    }
}

/// The configuration manager.
#[derive(Debug, Default)]
pub struct ConfigManager {
    universe: Universe,
    troupes: BTreeMap<String, ManagedTroupe>,
}

impl ConfigManager {
    /// Creates a manager over a machine universe.
    pub fn new(universe: Universe) -> ConfigManager {
        ConfigManager {
            universe,
            troupes: BTreeMap::new(),
        }
    }

    /// Read access to the universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Looks up a managed troupe.
    pub fn troupe(&self, name: &str) -> Option<&ManagedTroupe> {
        self.troupes.get(name)
    }

    /// Instantiates a troupe from specification source; returns the
    /// placement actions to perform.
    pub fn instantiate(
        &mut self,
        name: &str,
        spec_src: &str,
    ) -> Result<Vec<Placement>, ConfigError> {
        let spec = parse(spec_src)?;
        let placement = extend_troupe(&spec, &self.universe, &[])
            .ok_or_else(|| ConfigError::Unsatisfiable(name.to_string()))?;
        let actions = placement
            .iter()
            .map(|&machine| Placement::Start {
                name: name.to_string(),
                machine,
            })
            .collect();
        self.troupes.insert(
            name.to_string(),
            ManagedTroupe {
                name: name.to_string(),
                spec,
                placement,
            },
        );
        Ok(actions)
    }

    /// Reconfigures a troupe after failures or a changed universe: finds
    /// the satisfying placement closest to the current one and returns
    /// the start/stop delta (§7.5.3's troupe extension problem).
    pub fn reconfigure(&mut self, name: &str) -> Result<Vec<Placement>, ConfigError> {
        let entry = self
            .troupes
            .get_mut(name)
            .ok_or_else(|| ConfigError::Unknown(name.to_string()))?;
        let new_placement = extend_troupe(&entry.spec, &self.universe, &entry.placement)
            .ok_or_else(|| ConfigError::Unsatisfiable(name.to_string()))?;
        let mut actions = Vec::new();
        for &m in &new_placement {
            if !entry.placement.contains(&m) {
                actions.push(Placement::Start {
                    name: name.to_string(),
                    machine: m,
                });
            }
        }
        for &m in &entry.placement {
            if !new_placement.contains(&m) {
                actions.push(Placement::Stop {
                    name: name.to_string(),
                    machine: m,
                });
            }
        }
        entry.placement = new_placement;
        Ok(actions)
    }

    /// Notes that a machine crashed: removes it from the universe so
    /// reconfiguration avoids it.
    pub fn machine_down(&mut self, id: u32) {
        self.universe.machines.retain(|m| m.id != id);
    }

    /// Reconciles the manager's view with an externally observed
    /// placement. A runtime with its own repair pipeline (the
    /// Ringmaster's self-healing agent activates whatever warm spare
    /// registered first) may legitimately pick a different satisfying
    /// member than the solver would; recording what actually happened
    /// keeps later [`reconfigure`](ConfigManager::reconfigure) deltas
    /// anchored to reality instead of to a stale plan.
    pub fn note_placement(&mut self, name: &str, placement: Vec<u32>) -> Result<(), ConfigError> {
        let entry = self
            .troupes
            .get_mut(name)
            .ok_or_else(|| ConfigError::Unknown(name.to_string()))?;
        entry.placement = placement;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, Value};

    fn universe() -> Universe {
        let mut u = Universe::new();
        for i in 1..=5u32 {
            u = u.with(
                Machine::named(i, &format!("vax-{i}")).with("memory", Value::Num(8 + i as i64)),
            );
        }
        u
    }

    #[test]
    fn instantiate_produces_starts() {
        let mut cm = ConfigManager::new(universe());
        let actions = cm
            .instantiate(
                "fs",
                "troupe(x, y, z) where x.memory >= 9 and y.memory >= 9 and z.memory >= 9",
            )
            .unwrap();
        assert_eq!(actions.len(), 3);
        assert!(actions
            .iter()
            .all(|a| matches!(a, Placement::Start { name, .. } if name == "fs")));
        assert_eq!(cm.troupe("fs").unwrap().placement.len(), 3);
    }

    #[test]
    fn unsatisfiable_instantiation() {
        let mut cm = ConfigManager::new(universe());
        assert!(matches!(
            cm.instantiate("fs", "troupe(x) where x.memory >= 99"),
            Err(ConfigError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn reconfigure_after_crash_replaces_only_the_dead() {
        let mut cm = ConfigManager::new(universe());
        cm.instantiate("fs", "troupe(x, y) where x.memory >= 9 and y.memory >= 9")
            .unwrap();
        let before = cm.troupe("fs").unwrap().placement.clone();
        let dead = before[0];
        cm.machine_down(dead);
        let actions = cm.reconfigure("fs").unwrap();
        // Exactly one start (the replacement); no stop for the dead
        // machine is needed but the delta reports the membership change.
        let starts: Vec<_> = actions
            .iter()
            .filter(|a| matches!(a, Placement::Start { .. }))
            .collect();
        assert_eq!(starts.len(), 1);
        let after = cm.troupe("fs").unwrap().placement.clone();
        assert!(after.contains(&before[1]), "survivor kept");
        assert!(!after.contains(&dead));
        assert_eq!(after.len(), 2);
    }

    #[test]
    fn reconfigure_noop_when_nothing_changed() {
        let mut cm = ConfigManager::new(universe());
        cm.instantiate("fs", "troupe(x) where x.memory >= 9")
            .unwrap();
        let actions = cm.reconfigure("fs").unwrap();
        assert!(actions.is_empty());
    }

    #[test]
    fn note_placement_anchors_later_deltas() {
        let mut cm = ConfigManager::new(universe());
        cm.instantiate("fs", "troupe(x, y) where x.memory >= 9 and y.memory >= 9")
            .unwrap();
        // The runtime's own repair pipeline put the troupe on 4 and 5.
        cm.note_placement("fs", vec![4, 5]).unwrap();
        assert_eq!(cm.troupe("fs").unwrap().placement, vec![4, 5]);
        // A later reconfiguration keeps those survivors.
        cm.machine_down(4);
        cm.reconfigure("fs").unwrap();
        let after = cm.troupe("fs").unwrap().placement.clone();
        assert!(after.contains(&5), "observed survivor kept");
        assert!(!after.contains(&4));
        assert_eq!(after.len(), 2);
        assert!(matches!(
            cm.note_placement("nope", vec![1]),
            Err(ConfigError::Unknown(_))
        ));
    }

    #[test]
    fn unknown_troupe_rejected() {
        let mut cm = ConfigManager::new(universe());
        assert!(matches!(
            cm.reconfigure("nope"),
            Err(ConfigError::Unknown(_))
        ));
    }

    #[test]
    fn spec_change_can_grow_troupe() {
        let mut cm = ConfigManager::new(universe());
        cm.instantiate("fs", "troupe(x) where x.memory >= 9")
            .unwrap();
        // Re-instantiate with a bigger spec (programming-in-the-large
        // tuning of availability, §1.1).
        let actions = cm
            .instantiate(
                "fs",
                "troupe(x, y, z) where x.memory >= 9 and y.memory >= 9 and z.memory >= 9",
            )
            .unwrap();
        assert_eq!(actions.len(), 3);
        assert_eq!(cm.troupe("fs").unwrap().placement.len(), 3);
    }
}
